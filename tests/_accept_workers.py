"""Subprocess workers for the tests' memory measurements.

Each worker runs in a freshly spawned process so its peak resident set size
is its own (measured via VmHWM, see src_connector.bench._peak_rss_bytes),
and so is the heap it leaves behind.
"""


def linker_peak_worker(bank_path: str, query_path: str, mode: str, out_path: str) -> int:
    from src_connector.bench import _peak_rss_bytes
    from src_connector.linker import run_src_linker
    from src_connector.quasidict import build_bank_index

    qd = build_bank_index(bank_path, 31, 2, 12)[0]  # drops the count table, as src link does
    run_src_linker(qd, bank_path, query_path, out_path, min_shared=2, mode=mode)
    return _peak_rss_bytes()


def _vm_rss() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


def rss_around_counting_worker(bank_path: str, k: int, mmap_threshold: int = 0) -> tuple[int, int]:
    """VmRSS before count_solid_kmers(bank_path, k, 2) and after its result
    is dropped.

    A non-zero mmap_threshold fixes glibc's, and the trim threshold at twice
    it, as its dynamic rule leaves them once a library caller has freed an
    array of that size: smaller arrays then land in the heap, which keeps up
    to the trim threshold of free pages at its top. Reads are then parsed in
    16 KiB blocks, so the encoder's heap temporaries, about 32 bytes per
    base of a block, stay under 1 MiB, and what the heap keeps is not theirs.
    """
    from src_connector.kmers import count_solid_kmers

    count_solid_kmers(["ACGT" * 10], k, 2)  # so the code it runs is paged in before
    if mmap_threshold:
        import ctypes

        from src_connector import seqio
        from src_connector.cli import _M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD

        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
        mallopt(_M_TRIM_THRESHOLD, 2 * mmap_threshold)
        seqio.BLOCK_BYTES = 1 << 14
    before = _vm_rss()
    solid = count_solid_kmers(bank_path, k, 2)
    del solid
    return before, _vm_rss()
