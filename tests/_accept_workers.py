"""Subprocess workers for the acceptance suite's peak-memory measurements.

Each worker runs in a freshly spawned process so its peak resident set size
is its own (measured via VmHWM, see src_connector.bench._peak_rss_bytes).
"""


def linker_peak_worker(bank_path: str, query_path: str, mode: str, out_path: str) -> int:
    from src_connector.bench import _peak_rss_bytes
    from src_connector.linker import run_src_linker
    from src_connector.quasidict import build_bank_index

    qd = build_bank_index(bank_path, 31, 2, 12)[0]  # drops the solid set, as src link does
    run_src_linker(qd, bank_path, query_path, out_path, min_shared=2, mode=mode)
    return _peak_rss_bytes()
