"""Benchmark harness: quasi-dictionary vs an in-process hash map baseline.

Each structure is built and queried in its own spawned subprocess so peak
resident set size can be read per structure from the OS. The key file is
generated once by the parent and shared.
"""

import csv
import multiprocessing as mp
import os
import resource
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .kmers import MAX_K, SolidKmerSet, canonicalize_batch
from .mphf import DEFAULT_GAMMA, DEFAULT_MASTER_SEED
from .quasidict import QuasiDictionary

DEFAULT_SIZES = (10_000, 100_000, 1_000_000, 10_000_000)
# alien keys per size, capped at the canonical k-mers the keys leave over;
# also caps the keys probed
N_ALIENS = 1_000_000

CSV_COLUMNS = [
    "n_keys",
    "f",
    "structure",
    "build_s",
    "query_s",
    "peak_mem_bytes",
    "fp_rate",
    "build_cpu_s",
    "query_cpu_s",
]


def n_canonical_kmers(k: int) -> int:
    """Number of distinct canonical k-mers (palindromes count once)."""
    return (4**k + (4 ** (k // 2) if k % 2 == 0 else 0)) // 2


def random_canonical_codes(n: int, k: int, seed: int) -> np.ndarray:
    """n distinct canonical k-mer codes, ascending; ValueError if there are fewer."""
    n_canonical = n_canonical_kmers(k)
    if n > n_canonical:
        raise ValueError(f"{n} keys asked for, but there are only {n_canonical} canonical {k}-mers")
    rng = np.random.default_rng(seed)
    out = np.empty(0, dtype=np.uint64)
    while len(out) < n:
        draw = rng.integers(0, 1 << (2 * k), size=max(2 * n, 1024), dtype=np.uint64)
        out = np.unique(np.concatenate([out, canonicalize_batch(draw, k)]))
    return out[:n]


def make_disjoint_sets(
    n_keys: int, n_aliens: int, k: int = MAX_K, seed: int = 0xBEEF
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, aliens): distinct canonical codes with no overlap."""
    pool = random_canonical_codes(n_keys + n_aliens, k, seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    perm = rng.permutation(len(pool))
    keys = np.sort(pool[perm[:n_keys]])
    aliens = np.sort(pool[perm[n_keys : n_keys + n_aliens]])
    return keys, aliens


def _peak_rss_bytes() -> int:
    """Per-process peak resident set size.

    /proc VmHWM is preferred: some container kernels report a machine-wide
    value through getrusage, which would poison cross-process comparisons.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _load_keys(path: str) -> np.ndarray:
    return np.fromfile(path, dtype=np.uint64)


def bench_quasidict_worker(
    keys_path: str, aliens_path: str, k: int, f: int, gamma: float, seed: int
) -> dict:
    keys = _load_keys(keys_path)
    n = len(keys)
    counts = np.broadcast_to(np.uint64(1), n)  # stride-0 view, no allocation
    solid = SolidKmerSet(k, 1, keys, counts, n, bank_digest=bytes(16))  # no bank: synthetic keys
    w0, c0 = time.perf_counter(), time.process_time()
    qd = QuasiDictionary.create(solid, f, gamma=gamma, master_seed=seed)
    build_s, build_cpu = time.perf_counter() - w0, time.process_time() - c0

    probe = keys[: min(n, N_ALIENS)]
    w0, c0 = time.perf_counter(), time.process_time()
    res = qd.query_batch(probe)
    query_s, query_cpu = time.perf_counter() - w0, time.process_time() - c0
    assert (res >= 0).all()

    aliens = _load_keys(aliens_path)
    fp_rate = float((qd.query_batch(aliens) >= 0).mean()) if len(aliens) else 0.0
    return {
        "build_s": build_s,
        "query_s": query_s,
        "build_cpu_s": build_cpu,
        "query_cpu_s": query_cpu,
        "fp_rate": fp_rate,
        "peak_mem_bytes": _peak_rss_bytes(),
        "bits_per_key": qd.size_bits() / n if n else 0.0,
        "payload_bits": qd.payload_bits,
        "mphf_bits_per_key": qd.mphf.size_bits() / n if n else 0.0,
    }


def bench_hashmap_worker(
    keys_path: str, aliens_path: str, k: int, f: int, gamma: float, seed: int
) -> dict:
    keys = _load_keys(keys_path)
    n = len(keys)
    w0, c0 = time.perf_counter(), time.process_time()
    table = dict(zip(keys.tolist(), range(n)))
    build_s, build_cpu = time.perf_counter() - w0, time.process_time() - c0

    probe = keys[: min(n, N_ALIENS)].tolist()
    w0, c0 = time.perf_counter(), time.process_time()
    for key in probe:
        table[key]
    query_s, query_cpu = time.perf_counter() - w0, time.process_time() - c0

    aliens = _load_keys(aliens_path).tolist()
    n_fp = sum(1 for a in aliens if a in table)
    return {
        "build_s": build_s,
        "query_s": query_s,
        "build_cpu_s": build_cpu,
        "query_cpu_s": query_cpu,
        "fp_rate": n_fp / len(aliens) if aliens else 0.0,
        "peak_mem_bytes": _peak_rss_bytes(),
    }


STRUCTURES = {"quasidict": bench_quasidict_worker, "hashmap": bench_hashmap_worker}


def run_isolated(fn, *args):
    """Run fn(*args) in a fresh spawned process, so ru_maxrss is its own."""
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(fn, *args).result()


def run_bench(
    sizes=DEFAULT_SIZES,
    f: int = 12,
    k: int = MAX_K,
    gamma: float = DEFAULT_GAMMA,
    seed: int = DEFAULT_MASTER_SEED,
    out_path: str | None = None,
) -> list[dict]:
    """One row per size and STRUCTURES entry, each measured in its own process."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="src_bench_") as tmp:
        for n in sizes:
            n_aliens = max(0, min(N_ALIENS, n_canonical_kmers(k) - n))
            keys, aliens = make_disjoint_sets(n, n_aliens, k=k, seed=seed)
            keys_path = os.path.join(tmp, "keys.bin")
            aliens_path = os.path.join(tmp, "aliens.bin")
            keys.tofile(keys_path)
            aliens.tofile(aliens_path)
            del keys, aliens
            for structure, worker in STRUCTURES.items():
                stats = run_isolated(worker, keys_path, aliens_path, k, f, gamma, seed)
                row = {"n_keys": n, "f": f, "structure": structure}
                row.update(stats)
                rows.append(row)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return rows
