"""Subprocess workers for the tests' memory measurements.

Each worker runs in a freshly spawned process so its peak resident set size
is its own (measured via VmHWM, see src_connector.bench._peak_rss_bytes),
and so is the heap it leaves behind.
"""


def linker_peak_worker(bank_path: str, query_path: str, mode: str, out_path: str) -> int:
    from src_connector.bench import _peak_rss_bytes
    from src_connector.linker import run_src_linker
    from src_connector.quasidict import build_bank_index

    qd = build_bank_index(bank_path, 31, 2, 12)[0]  # drops the solid set, as src link does
    run_src_linker(qd, bank_path, query_path, out_path, min_shared=2, mode=mode)
    return _peak_rss_bytes()


def _vm_rss() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


def rss_around_counting_worker(bank_path: str, k: int) -> tuple[int, int]:
    """VmRSS before count_solid_kmers(bank_path, k, 2) and after its result is dropped."""
    from src_connector.kmers import count_solid_kmers

    count_solid_kmers(["ACGT" * 10], k, 2)  # so the code it runs is paged in before
    before = _vm_rss()
    solid = count_solid_kmers(bank_path, k, 2)
    del solid
    return before, _vm_rss()
