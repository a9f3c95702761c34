"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its measured numbers. Heavier instances than the unit tests; peak
memory is measured in spawned subprocesses."""

import os
import time
from multiprocessing import get_context
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from src_connector.bench import (
    bench_hashmap_worker,
    bench_quasidict_worker,
    make_disjoint_sets,
    random_canonical_codes,
)
from src_connector.cli import main
from src_connector.kmers import SolidKmerSet, encode_reads
from src_connector.linker import run_src_linker
from src_connector.mphf import NOT_FOUND, Mphf
from src_connector.quasidict import QuasiDictionary, build_bank_index
from src_connector.counter import build_count_table, run_src_counter

from _accept_workers import linker_peak_worker
from _datagen import duplicated_reads, planted_family_reads, pool_sampled_reads, write_fasta
from _oracles import (
    counter_records,
    linker_records,
    parse_counter_output,
    parse_linker_output,
)

K = 31


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _solid_from(codes: np.ndarray) -> SolidKmerSet:
    return SolidKmerSet(
        K, 1, codes, np.ones(len(codes), dtype=np.uint64), len(codes), bank_digest=bytes(16)
    )


def _count(bank, query, t, f, out):
    qd, solid = build_bank_index(bank, K, t, f)
    run_src_counter(qd, build_count_table(qd, solid.codes, solid.counts), query, out)


def _link(bank, query, t, f, out, **kwargs):
    run_src_linker(build_bank_index(bank, K, t, f)[0], bank, query, out, **kwargs)


def _run_spawned(fn, *args):
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def _data_lines(path) -> list[str]:
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def keysets_1m():
    return make_disjoint_sets(1_000_000, 1_000_000, k=K, seed=101)


@pytest.fixture(scope="module")
def counter_instance(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("counter")
    rng = np.random.default_rng(77)
    seqs = duplicated_reads(rng, n_unique=3000, n_pairs=3500, length=100)
    assert len(seqs) == 10_000
    bank = tmp / "bank.fa"
    write_fasta(bank, seqs)
    return tmp, bank, seqs


@pytest.fixture(scope="module")
def linker_instance(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("linker")
    rng = np.random.default_rng(78)
    seqs, families = planted_family_reads(
        rng, n_families=50, family_size=4, n_background=800, return_members=True
    )
    assert len(seqs) == 1000
    bank = tmp / "bank.fa"
    write_fasta(bank, seqs)
    return tmp, bank, seqs, families


# ---------------------------------------------------------------- criteria

def test_criterion_01_false_positive_rate(keysets_1m):
    keys, aliens = keysets_1m
    t0 = time.perf_counter()
    qd = QuasiDictionary.create(_solid_from(keys), f=12, gamma=2.0)
    fp_rate = float((qd.query_batch(aliens) >= 0).mean())
    mphf_rejected = float((qd.mphf.query_batch(aliens) == NOT_FOUND).mean())
    elapsed = time.perf_counter() - t0
    ok = fp_rate <= 0.0003 and mphf_rejected >= 0.5 and elapsed < 120
    _report(
        1, "false-positive rate", ok,
        f"fp_rate={fp_rate:.2e} (limit 3e-4), mphf_rejection={mphf_rejected:.3f} "
        f"(floor 0.5), elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_02_exact_mode_zero_fp(keysets_1m):
    keys, aliens = keysets_1m
    qd = QuasiDictionary.create(_solid_from(keys), f=62, gamma=2.0)
    n_fp = int((qd.query_batch(aliens) >= 0).sum())
    _report(2, "exact mode", n_fp == 0, f"false positives={n_fp} over {len(aliens)} aliens")


def test_criterion_03_mphf_bijection():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (0, 1, 10, 1_000, 1_000_000):
        keys = random_canonical_codes(n, K, seed=200 + n)
        m = Mphf.build(keys)
        res = m.query_batch(keys)
        bijective = sorted(res.tolist()) == list(range(n))
        ok &= bijective
        details.append(f"N={n}:{'ok' if bijective else 'BROKEN'}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    _report(3, "MPHF bijection", ok, f"{', '.join(details)}, elapsed={elapsed:.1f}s (limit 60s)")


def test_criterion_04_memory_budget(tmp_path):
    n = 10_000_000
    keys, aliens = make_disjoint_sets(n, 100_000, k=K, seed=102)
    keys_path = str(tmp_path / "keys.bin")
    aliens_path = str(tmp_path / "aliens.bin")
    keys.tofile(keys_path)
    aliens.tofile(aliens_path)
    del keys, aliens

    qd_stats = _run_spawned(bench_quasidict_worker, keys_path, aliens_path, K, 12, 2.0, 1337)
    hm_stats = _run_spawned(bench_hashmap_worker, keys_path, aliens_path, K, 12, 2.0, 1337)

    bits_per_elem = qd_stats["bits_per_key"]
    payload_ok = qd_stats["payload_bits"] == n * 12
    ratio = hm_stats["peak_mem_bytes"] / qd_stats["peak_mem_bytes"]
    ok = bits_per_elem <= 20 and payload_ok and ratio > 3
    _report(
        4, "memory budget", ok,
        f"bits/elem={bits_per_elem:.2f} (limit 20), payload_exact={payload_ok}, "
        f"hashmap/qd peak ratio={ratio:.2f} (floor 3); "
        f"qd_peak={qd_stats['peak_mem_bytes'] / 2**20:.0f}MiB, "
        f"hashmap_peak={hm_stats['peak_mem_bytes'] / 2**20:.0f}MiB",
    )


def test_criterion_05_counter_oracle(counter_instance):
    tmp, bank, seqs = counter_instance
    ok = True
    details = []
    for t in (1, 2):
        out = tmp / f"exact_t{t}.tsv"
        t0 = time.perf_counter()
        _count(bank, bank, t, 62, out)
        elapsed = time.perf_counter() - t0
        matches = parse_counter_output(out) == counter_records(seqs, seqs, K, t)
        ok &= matches and elapsed < 60
        details.append(f"t={t}: oracle_match={matches}, elapsed={elapsed:.1f}s (limit 60s)")
    _report(5, "counter oracle equivalence", ok, "; ".join(details))


def test_criterion_06_overestimation(counter_instance):
    tmp, bank, seqs = counter_instance
    t = 2
    exact_path = tmp / f"exact_t{t}.tsv"
    if not exact_path.exists():
        _count(bank, bank, t, 62, exact_path)
    exact = parse_counter_output(exact_path)

    never_below = True
    mean_overestimate = None
    for f in (4, 8, 12):
        out = tmp / f"approx_f{f}.tsv"
        _count(bank, bank, t, f, out)
        approx = parse_counter_output(out)
        for ex, ap in zip(exact, approx):
            # mean, median, min, max each >= the exact-mode value
            never_below &= all(ap[i] >= ex[i] for i in (2, 3, 4, 5))
        if f == 12:
            mean_overestimate = float(
                np.mean([ap[2] - ex[2] for ex, ap in zip(exact, approx)])
            )
    ok = never_below and mean_overestimate < 0.01
    _report(
        6, "over-estimation", ok,
        f"never_below_exact={never_below}, "
        f"mean_overestimate_f12={mean_overestimate:.5f} (limit 0.01)",
    )


def test_criterion_07_linker_oracle(linker_instance):
    tmp, bank, seqs, families = linker_instance
    out = tmp / "ram.txt"
    t0 = time.perf_counter()
    _link(bank, bank, 1, 62, out, min_shared=1, mode="ram")
    elapsed = time.perf_counter() - t0

    parsed = parse_linker_output(out)
    oracle_match = parsed == linker_records(seqs, seqs, K, 1, 1)
    mutual = all(
        b in {tid for tid, _ in parsed[a]}
        for fam in families
        for a in fam
        for b in fam
        if a != b
    )
    ok = oracle_match and mutual and elapsed < 60
    _report(
        7, "linker oracle equivalence", ok,
        f"oracle_match={oracle_match}, families_mutually_reported={mutual}, "
        f"elapsed={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_08_ram_disk_equivalence(linker_instance, tmp_path):
    tmp, bank, seqs, _ = linker_instance
    ram_out = tmp / "ram.txt"
    if not ram_out.exists():
        _link(bank, bank, 1, 62, ram_out, min_shared=1, mode="ram")
    disk_out = tmp / "disk.txt"
    _link(bank, bank, 1, 62, disk_out, min_shared=1, mode="disk")
    same_output = sorted(_data_lines(ram_out)) == sorted(_data_lines(disk_out))

    # peak memory at a 10^6-read bank, each mode in its own process
    rng = np.random.default_rng(79)
    big = pool_sampled_reads(rng, pool_size=10_000, n_reads=1_000_000, length=60)
    big_bank = tmp_path / "big_bank.fa"
    write_fasta(big_bank, big)
    query = tmp_path / "query.fa"
    write_fasta(query, big[:2000])
    del big
    ram_peak = _run_spawned(
        linker_peak_worker, str(big_bank), str(query), "ram", str(tmp_path / "big_ram.txt")
    )
    disk_peak = _run_spawned(
        linker_peak_worker, str(big_bank), str(query), "disk", str(tmp_path / "big_disk.txt")
    )
    os.unlink(big_bank)

    ok = same_output and disk_peak < ram_peak
    _report(
        8, "RAM/disk equivalence", ok,
        f"sorted_outputs_identical={same_output}, "
        f"disk_peak={disk_peak / 2**20:.0f}MiB < ram_peak={ram_peak / 2**20:.0f}MiB "
        f"at 10^6 reads: {disk_peak < ram_peak}",
    )


def test_criterion_09_query_time_scaling():
    rng = np.random.default_rng(80)
    n_reads, length = 100_000, 100
    lut = np.frombuffer(b"ACGT", dtype=np.uint8)
    big = lut[rng.integers(0, 4, n_reads * length)].tobytes().decode("latin-1")
    reads = [big[i * length : (i + 1) * length] for i in range(n_reads)]
    codes = []
    for lo in range(0, n_reads, 20_000):
        canon, _, _ = encode_reads(reads[lo : lo + 20_000], K)
        codes.append(canon)
    codes = np.concatenate(codes)
    del reads, big

    times = {}
    for n_keys in (100_000, 1_000_000, 10_000_000):
        keys = random_canonical_codes(n_keys, K, seed=300)
        qd = QuasiDictionary.create(_solid_from(keys), f=12, gamma=2.0)
        del keys
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            qd.query_batch(codes)
            best = min(best, time.perf_counter() - t0)
        times[n_keys] = best
        del qd
    ratio = max(times.values()) / min(times.values())
    ok = ratio <= 3.0
    timing = ", ".join(f"N={n:.0e}:{s:.2f}s" for n, s in times.items())
    _report(9, "query-time scaling", ok, f"max/min ratio={ratio:.2f} (limit 3); {timing}")


def test_criterion_10_thread_determinism(linker_instance, tmp_path):
    _, bank, _, _ = linker_instance
    ok = True
    details = []
    for name, argv in (
        ("count", ["count", "-b", str(bank), "-q", str(bank), "-t", "1", "-f", "8"]),
        ("link", ["link", "-b", str(bank), "-q", str(bank), "-t", "1", "-f", "12",
                  "--min-shared", "1"]),
        ("link-disk", ["link", "-b", str(bank), "-q", str(bank), "-t", "1", "-f", "12",
                       "--min-shared", "1", "--mode", "disk"]),
    ):
        out1 = tmp_path / f"{name}_t1.out"
        out8 = tmp_path / f"{name}_t8.out"
        assert main(argv + ["--threads", "1", "-o", str(out1)]) == 0
        assert main(argv + ["--threads", "8", "-o", str(out8)]) == 0
        identical = out1.read_bytes() == out8.read_bytes()
        ok &= identical
        details.append(f"{name}:{'identical' if identical else 'DIFFERS'}")
    _report(10, "thread determinism", ok, ", ".join(details))
