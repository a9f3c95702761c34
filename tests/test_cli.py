import ctypes
import functools
import gzip
import io
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import types
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from src_connector import cli, counter, seqio
from src_connector.bench import random_canonical_codes
from src_connector.cli import build_parser, main
from src_connector.kmers import canonicalize_batch

from _datagen import planted_family_reads, random_reads, write_fasta
from _oracles import (
    counter_records,
    linker_records,
    parse_counter_output,
    parse_linker_output,
)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def bank(tmp_path):
    rng = np.random.default_rng(0)
    seqs = planted_family_reads(rng, n_families=8, family_size=3, n_background=80)
    path = tmp_path / "bank.fa"
    write_fasta(path, seqs)
    return path, seqs


def _data_lines(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def test_count_end_to_end(bank, tmp_path):
    path, seqs = bank
    out = tmp_path / "out.tsv"
    code = main(
        ["count", "-b", str(path), "-q", str(path), "-t", "1", "--exact",
         "--threads", "2", "-o", str(out)]
    )
    assert code == 0
    assert parse_counter_output(out) == counter_records(seqs, seqs, 31, 1)


@pytest.fixture
def fresh_pin(monkeypatch):
    """cli._pin_malloc_thresholds as if this process had not run it, and
    the calls made to a stand-in C library: mallopt is recorded unless
    the test deletes it."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(cli, "_pin_malloc_thresholds", functools.cache(cli._pin_malloc_thresholds.__wrapped__))
    return libc, calls


def test_malloc_thresholds_pinned_once(fresh_pin, capsys):
    _, calls = fresh_pin
    assert main(["--version"]) == 0
    assert main(["--version"]) == 0
    assert calls == [(-3, 8 * seqio.BLOCK_BYTES), (-1, 16 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_run_without_mallopt(bank, tmp_path, fresh_pin):
    path, _ = bank
    args = ["count", "-b", str(path), "-q", str(path), "-t", "1", "--threads", "2", "-o"]
    libc, calls = fresh_pin
    assert main(args + [str(tmp_path / "pinned.tsv")]) == 0
    assert len(calls) == 2
    cli._pin_malloc_thresholds.cache_clear()
    del libc.mallopt  # a C library without mallopt (macOS)
    assert main(args + [str(tmp_path / "unpinned.tsv")]) == 0
    assert len(calls) == 2
    assert (tmp_path / "unpinned.tsv").read_bytes() == (tmp_path / "pinned.tsv").read_bytes()


def test_link_exact_matches_oracle(bank, tmp_path):
    path, seqs = bank
    out = tmp_path / "out.txt"
    code = main(
        ["link", "-b", str(path), "-q", str(path), "-t", "1", "--exact",
         "--min-shared", "1", "--threads", "2", "-o", str(out)]
    )
    assert code == 0
    assert parse_linker_output(out) == linker_records(seqs, seqs, 31, 1, 1)


def test_solidity_alias_c(bank, tmp_path):
    path, _ = bank
    out_t = tmp_path / "t.tsv"
    out_c = tmp_path / "c.tsv"
    base = ["count", "-b", str(path), "-q", str(path), "-o"]
    assert main(base[:-1] + ["-t", "1", "-o", str(out_t)]) == 0
    assert main(base[:-1] + ["-c", "1", "-o", str(out_c)]) == 0
    assert out_t.read_bytes() == out_c.read_bytes()


def test_index_reuse_count(bank, tmp_path):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-f", "12", "-o", str(idx)]) == 0
    direct = tmp_path / "direct.tsv"
    reused = tmp_path / "reused.tsv"
    assert main(
        ["count", "-b", str(path), "-q", str(path), "-t", "1", "-f", "12",
         "-o", str(direct)]
    ) == 0
    assert main(
        ["count", "--index", str(idx), "-q", str(path), "-t", "1", "-f", "12",
         "-o", str(reused)]
    ) == 0
    assert _data_lines(direct) == _data_lines(reused)


def test_index_reuse_link(bank, tmp_path):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-f", "12", "-o", str(idx)]) == 0
    direct = tmp_path / "direct.txt"
    reused = tmp_path / "reused.txt"
    args = ["-q", str(path), "-t", "1", "-f", "12", "--min-shared", "1"]
    assert main(["link", "-b", str(path)] + args + ["-o", str(direct)]) == 0
    assert main(
        ["link", "-b", str(path), "--index", str(idx)] + args + ["-o", str(reused)]
    ) == 0
    assert _data_lines(direct) == _data_lines(reused)


def test_link_disk_mode(bank, tmp_path):
    path, seqs = bank
    out = tmp_path / "out.txt"
    code = main(
        ["link", "-b", str(path), "-q", str(path), "-t", "1", "--exact",
         "--min-shared", "1", "--mode", "disk", "-o", str(out)]
    )
    assert code == 0
    assert parse_linker_output(out) == linker_records(seqs, seqs, 31, 1, 1)


def test_link_sidecar(bank, tmp_path, monkeypatch):
    path, seqs = bank
    out = tmp_path / "out.txt"
    sidecar = tmp_path / "map.tsv"
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 512)  # several batches, in order
    code = main(
        ["link", "-b", str(path), "-q", str(path), "-t", "1", "-o", str(out),
         "--threads", "2", "--sidecar", str(sidecar)]
    )
    assert code == 0
    lines = sidecar.read_text().splitlines()
    assert len(lines) == len(seqs)
    assert lines[0] == "0\tread0"
    assert lines == [f"{i}\tread{i}" for i in range(len(seqs))]


@pytest.mark.parametrize(
    "args",
    [["index"], ["count", "--threads", "1"], ["count", "--threads", "2"]]
    + [["link", "--mode", mode, "--threads", n] for mode in ("ram", "disk") for n in ("1", "2")],
    ids=lambda args: "-".join(args[:1] + args[2::2]),
)
def test_output_does_not_depend_on_block_size(bank, tmp_path, monkeypatch, args):
    # batches are the parser's blocks: at 512 bytes the bank and query are several each
    path, _ = bank
    out, sidecar = tmp_path / "out", tmp_path / "map.tsv"
    args = args + ["-b", str(path), "-t", "1", "-o", str(out)]
    if args[0] != "index":
        args += ["-q", str(path)]
    if args[0] == "link":
        args += ["--tmp-dir", str(tmp_path), "--sidecar", str(sidecar)]
    outputs = []
    for block in (512, seqio.BLOCK_BYTES):
        monkeypatch.setattr(seqio, "BLOCK_BYTES", block)
        assert main(args) == 0
        outputs.append((out.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None))
    assert outputs[0] == outputs[1]


def test_link_sidecar_writes_header_bytes(tmp_path):
    # a UTF-8 and a latin-1 header come out as the bytes they are in the input
    headers = ["r0 café".encode(), "r1 café".encode("latin-1")]
    seq = random_reads(np.random.default_rng(1), 1, 60)[0].encode()
    query = tmp_path / "q.fa"
    query.write_bytes(b"".join(b">" + h + b"\n" + seq + b"\n" for h in headers))
    sidecar = tmp_path / "map.tsv"
    code = main(
        ["link", "-b", str(query), "-q", str(query), "-t", "1", "-o", str(tmp_path / "out.txt"),
         "--sidecar", str(sidecar)]
    )
    assert code == 0
    assert sidecar.read_bytes() == b"0\tr0 caf\xc3\xa9\n1\tr1 caf\xe9\n"


def _read_set_forms(tmp_path, seqs) -> list[Path]:
    """One read set as FASTA, as FASTQ with CRLF line ends and every third
    quality over two lines, and as that FASTQ gzipped."""
    fasta, fastq, fastq_gz = tmp_path / "reads.fa", tmp_path / "reads.fq", tmp_path / "reads.fq.gz"
    write_fasta(fasta, seqs)
    records = []
    for i, seq in enumerate(seqs):
        cut = len(seq) // 2 if i % 3 == 0 else len(seq)
        quals = [q for q in ("I" * cut, "5" * (len(seq) - cut)) if q]
        records.append("\r\n".join([f"@read{i}", seq, "+", *quals, ""]))
    fastq.write_bytes("".join(records).encode())
    fastq_gz.write_bytes(gzip.compress(fastq.read_bytes()))
    return [fasta, fastq, fastq_gz]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fasta_and_fastq_give_the_same_outputs(bank, tmp_path, monkeypatch, threads):
    # each form of one read set, as bank and as query, gives the same index,
    # count (one-shot and --index) and link output bytes, sidecar included;
    # small blocks end batches inside records
    _, seqs = bank
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 512)
    outputs = []
    for reads in _read_set_forms(tmp_path, seqs):
        out = tmp_path / reads.name.replace(".", "_")
        out.mkdir()
        query = ["-q", str(reads), "--threads", threads, "-o"]
        runs = [
            ["index", "-b", str(reads), "-t", "1", "-o", str(out / "bank.idx")],
            ["count", "--index", str(out / "bank.idx"), *query, str(out / "reused.tsv")],
            ["count", "-b", str(reads), "-t", "1", *query, str(out / "count.tsv")],
            ["link", "-b", str(reads), "-t", "1", "--sidecar", str(out / "map.tsv"), *query, str(out / "link.txt")],
        ]
        for args in runs:
            assert main(args) == 0, args
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 5 and outputs[0]["map.tsv"].startswith(b"0\tread0\n")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _truncated_query(tmp_path, monkeypatch):
    """A query FASTQ whose last record is cut short, read in small batches so
    that earlier batches are written before the run fails."""
    seqs = random_reads(np.random.default_rng(2), 300, 60)
    query = tmp_path / "q.fq"
    query.write_text("".join(f"@q{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(seqs))[:-30])
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 512)
    return query


_TRUNCATED = "truncated quality for read 299"


@pytest.mark.parametrize("tool", ["count", "link"])
def test_failed_run_leaves_no_output(bank, tmp_path, monkeypatch, capsys, tool):
    path, _ = bank
    query = _truncated_query(tmp_path, monkeypatch)
    out, sidecar = tmp_path / "out.txt", tmp_path / "map.tsv"
    args = [tool, "-b", str(path), "-q", str(query), "-t", "1", "--threads", "2", "-o", str(out)]
    if tool == "link":
        args += ["--sidecar", str(sidecar)]
    assert main(args) == 2
    assert _TRUNCATED in capsys.readouterr().err
    assert not out.exists() and not sidecar.exists()
    assert not multiprocessing.active_children()


def test_worker_death_fails_run(bank, tmp_path, monkeypatch, capsys):
    # a worker process that dies mid-run fails the run; it does not hang it
    path, _ = bank
    monkeypatch.setattr(seqio, "BLOCK_BYTES", 512)
    estimate = counter.estimate_batch

    def die_after_first(qd, counts, batch):
        if batch.first_id:
            os._exit(1)
        return estimate(qd, counts, batch)

    monkeypatch.setattr(counter, "estimate_batch", die_after_first)
    out = tmp_path / "out.tsv"
    args = ["count", "-b", str(path), "-q", str(path), "-t", "1", "--threads", "2", "-o", str(out)]
    assert main(args) == 2
    assert "terminated abruptly" in capsys.readouterr().err
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_failed_run_keeps_non_regular_output(bank, tmp_path, monkeypatch, capsys, kind):
    # only a regular file the run itself names is deleted, never a link, device or FIFO
    path, _ = bank
    query = _truncated_query(tmp_path, monkeypatch)
    out = tmp_path / "out"
    drained = []
    if kind == "symlink":
        target = tmp_path / "target.txt"
        out.symlink_to(target)
    else:
        os.mkfifo(out)
        reader = threading.Thread(target=lambda: drained.append(out.read_bytes()), daemon=True)
        reader.start()
    args = ["count", "-b", str(path), "-q", str(query), "-t", "1", "-o", str(out)]
    assert main(args) == 2
    assert _TRUNCATED in capsys.readouterr().err
    assert out.is_symlink() if kind == "symlink" else stat.S_ISFIFO(out.lstat().st_mode)
    if kind == "symlink":
        assert target.exists()
    else:
        reader.join(timeout=10)
        assert drained and drained[0].startswith(b"# src count")


def test_failed_delete_keeps_run_error(bank, tmp_path, monkeypatch, capsys):
    # where outputs go to named temp files (no O_TMPFILE), a delete of them
    # that fails does not hide the error that failed the run
    path, _ = bank
    query = _truncated_query(tmp_path, monkeypatch)
    out, sidecar = tmp_path / "out.txt", tmp_path / "map.tsv"
    monkeypatch.delattr(os, "O_TMPFILE", raising=False)
    unlink = os.unlink

    def refuse(name, *args, **kwargs):
        if Path(name).parent == tmp_path:
            raise PermissionError(13, "Permission denied", str(name))
        return unlink(name, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", refuse)
    args = ["link", "-b", str(path), "-q", str(query), "-t", "1", "-o", str(out),
            "--sidecar", str(sidecar)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert _TRUNCATED in err and "Permission denied" not in err
    assert not out.exists() and not sidecar.exists()
    assert len(list(tmp_path.glob(".src-*.tmp"))) == 2  # the temp files it could not delete


@pytest.mark.parametrize("unnamed", [True, False], ids=["O_TMPFILE", "named-temp"])
def test_output_replaces_the_path_whole(bank, tmp_path, monkeypatch, capsys, unnamed):
    # a failed run leaves the file at -o as it was; a run that succeeds
    # replaces it with its whole output, and leaves no other file behind
    if not unnamed:
        monkeypatch.delattr(os, "O_TMPFILE", raising=False)
    path, seqs = bank
    out = tmp_path / "out.tsv"
    out.write_bytes(b"before")
    before = set(tmp_path.iterdir())
    args = ["count", "-b", str(path), "-t", "1", "--threads", "1", "-o", str(out), "-q"]
    assert main([*args, str(_truncated_query(tmp_path, monkeypatch))]) == 2
    assert _TRUNCATED in capsys.readouterr().err
    assert out.read_bytes() == b"before"
    assert main([*args, str(path)]) == 0
    assert out.read_bytes().startswith(b"# src count") and len(_data_lines(out)) == len(seqs)
    assert set(tmp_path.iterdir()) == before | {tmp_path / "q.fq"}


def test_usage_error_negative_memory_budget(bank, tmp_path, capsys):
    path, _ = bank
    base = ["index", "-b", str(path), "-o", str(tmp_path / "bank.idx"), "--memory-budget"]
    assert main(base + ["-5"]) == 1
    assert "--memory-budget" in capsys.readouterr().err
    assert main(base + ["0"]) == 0


def test_usage_error_k_too_big(bank, tmp_path, capsys):
    path, _ = bank
    code = main(
        ["count", "-b", str(path), "-q", str(path), "-k", "40",
         "-o", str(tmp_path / "o")]
    )
    assert code == 1
    assert "k must be" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-4", "two"])
def test_usage_error_min_shared_below_one(bank, tmp_path, capsys, value):
    path, _ = bank
    code = main(
        ["link", "-b", str(path), "-q", str(path), "--min-shared", value,
         "-o", str(tmp_path / "o")]
    )
    assert code == 1
    assert "--min-shared" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["count", "link"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_usage_error_threads_below_one(bank, tmp_path, capsys, command, value):
    path, _ = bank
    code = main(
        [command, "-b", str(path), "-q", str(path), "--threads", value,
         "-o", str(tmp_path / "o")]
    )
    assert code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["index", "count", "link", "bench"])
@pytest.mark.parametrize(
    "flag,value",
    [("--gamma", "nan"), ("--gamma", "inf"), ("--gamma", "1"), ("--seed", "-1"),
     ("--seed", str(1 << 64))],
)
def test_usage_error_bad_gamma_or_seed(bank, tmp_path, capsys, command, flag, value):
    path, _ = bank
    inputs = {
        "index": ["-b", str(path), "-t", "1000"],  # no solid k-mer, so no build can catch it
        "bench": ["--sizes", "1000"],
    }.get(command, ["-b", str(path), "-q", str(path)])
    code = main([command, *inputs, flag, value, "-o", str(tmp_path / "o")])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sizes", ["-5", "0", "abc", "1.5", ","])
def test_usage_error_bench_sizes(tmp_path, capsys, sizes):
    code = main(["bench", "--sizes", sizes, "-o", str(tmp_path / "o")])
    assert code == 1
    assert "--sizes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags,message",
    [(["-k", "0"], "k must be"), (["-k", "40"], "k must be"), (["-f", "0"], "f must be"),
     (["-k", "5", "-f", "11"], "f must be"), (["-f", "63"], "f must be")],
)
def test_usage_error_bench_k_or_f(tmp_path, capsys, flags, message):
    code = main(["bench", "--sizes", "1000", *flags, "-o", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_more_keys_than_canonical_kmers(tmp_path, capsys):
    code = main(["bench", "--sizes", "600", "-k", "5", "-f", "8", "-o", str(tmp_path / "o")])
    assert code == 2
    assert "canonical 5-mers" in capsys.readouterr().err


def test_bench_caps_aliens_at_small_k(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "10", "-k", "5", "-f", "8", "-o", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["10", "8", "quasidict"], ["10", "8", "hashmap"]]
    capsys.readouterr()


@pytest.mark.parametrize("k,n_canonical", [(1, 2), (2, 10), (3, 32)])
def test_random_canonical_codes_limit(k, n_canonical):
    codes = random_canonical_codes(n_canonical, k, 0)
    assert np.array_equal(codes, np.unique(canonicalize_batch(np.arange(4**k, dtype=np.uint64), k)))
    with pytest.raises(ValueError):
        random_canonical_codes(n_canonical + 1, k, 0)


def test_bench_sizes_accept_exponent_form():
    args = build_parser().parse_args(["bench", "--sizes", "1e3,20", "-o", "o"])
    assert args.sizes == [1000, 20]


@pytest.mark.parametrize("command", ["count", "link"])
def test_threads_default_is_usable_cpus(monkeypatch, command):
    # the CPUs this process may run on, not the host's
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    args = build_parser().parse_args([command, "-q", "q.fa", "-o", "o"])
    assert args.threads == 3


def test_threads_default_without_affinity(monkeypatch, capsys):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert build_parser().parse_args(["count", "-q", "q.fa", "-o", "o"]).threads == 6
    assert main(["--version"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, flag, other",
    [
        pytest.param(["count", "-b", "{bank}", "-q", "{q}", "-o", "{q}"], "-o", "-q", id="count-query"),
        pytest.param(["index", "-b", "{bank}", "-o", "{bank}"], "-o", "-b", id="index-bank"),
        pytest.param(
            ["count", "--index", "{idx}", "-q", "{q}", "-o", "{idx}"], "-o", "--index", id="count-index"
        ),
        pytest.param(
            ["link", "-b", "{bank}", "-q", "{q}", "--sidecar", "{q}", "-o", "{out}"],
            "--sidecar", "-q", id="link-sidecar-query",
        ),
        pytest.param(["link", "-b", "{bank}", "-q", "{q}", "-o", "{bank}"], "-o", "-b", id="link-bank"),
        pytest.param(
            ["link", "-b", "{bank}", "-q", "{q}", "--sidecar", "{out}", "-o", "{out}"],
            "--sidecar", "-o", id="sidecar-is-output",
        ),
    ],
)
def test_output_is_an_input(bank, tmp_path, capsys, args, flag, other):
    path, seqs = bank
    files = {"bank": path, "q": tmp_path / "q.fa", "idx": tmp_path / "b.idx", "out": tmp_path / "out.txt"}
    write_fasta(files["q"], seqs[:5])
    assert main(["index", "-b", str(path), "-t", "1", "-o", str(files["idx"])]) == 0
    before = {name: file.read_bytes() for name, file in files.items() if file.exists()}
    capsys.readouterr()
    assert main([arg.format(**files) for arg in args]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} " in err and f" is the same file as {other} " in err
    assert {name: file.read_bytes() for name, file in files.items() if file.exists()} == before


@pytest.fixture
def no_index(monkeypatch):
    """Fail a run that builds or loads an index, with a message to check for."""

    def reached(*args, **kwargs):
        raise RuntimeError("index step reached")

    monkeypatch.setattr(cli, "build_bank_index", reached)
    monkeypatch.setattr(cli, "load_index", reached)


_UNUSABLE = {
    "index -b {bank} -o {none}/x.idx": "-o",
    "index -b {bank} -o {dir}": "-o",
    "index -b {bank} -o {out} --tmp-dir {none}": "--tmp-dir",
    "index -b {bank} -o {out} --tmp-dir {bank}": "--tmp-dir",
    "index -b {dir} -o {out}": "-b",
    "count -b {bank} -q {none}/q.fa -o {out}": "-q",
    "count -b {bank} -q {dir} -o {out}": "-q",
    "count --index {none}/b.idx -q {bank} -o {out}": "--index",
    "link -b {bank} -q {bank} -o {dir}": "-o",
    "link -b {bank} -q {none}/q.fa -o {out}": "-q",
    "link -b {bank} -q {bank} -o {out} --sidecar {dir}": "--sidecar",
    "link -b {bank} -q {bank} -o {out} --sidecar {none}/map.tsv": "--sidecar",
}


def _cli_args(tmp_path, bank, line: str) -> list[str]:
    paths = dict(
        bank=bank, dir=tmp_path, none=tmp_path / "none", out=tmp_path / "out",
        fifo=tmp_path / "q.fifo", idx=tmp_path / "b.idx",
    )
    return [arg.format(**paths) for arg in line.split()]


@pytest.mark.parametrize("line, flag", list(_UNUSABLE.items()))
def test_unusable_path_refused_before_the_index(bank, tmp_path, capsys, no_index, line, flag):
    assert main(_cli_args(tmp_path, bank[0], line)) == 2
    err = capsys.readouterr().err
    assert f"src: error: {flag} " in err and "index step reached" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [
        "count -b {bank} -q {fifo} -o {out}",
        "count -b {bank} -q /dev/stdin -o {out}",
        "count --index {idx} -q /dev/stdin -o {out}",
        "index -b {bank} -o /dev/null",
    ],
)
def test_fifo_and_devices_pass_the_path_checks(bank, tmp_path, capsys, no_index, line):
    if "/dev/stdin" in line and not os.path.exists("/dev/stdin"):
        pytest.skip("this process has no standard input")
    os.mkfifo(tmp_path / "q.fifo")  # never opened: the index step comes first
    (tmp_path / "b.idx").write_bytes(b"")
    assert main(_cli_args(tmp_path, bank[0], line)) == 2
    assert "index step reached" in capsys.readouterr().err


def test_non_regular_output_may_be_an_input(bank):
    path, _ = bank
    assert main(["count", "-b", str(path), "-t", "1", "-q", os.devnull, "-o", os.devnull]) == 0


def test_usage_error_missing_bank(tmp_path, capsys):
    code = main(["count", "-q", "whatever.fa", "-o", str(tmp_path / "o")])
    assert code == 1
    assert "bank" in capsys.readouterr().err


def test_usage_error_index_param_mismatch(bank, tmp_path, capsys):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-f", "12", "-o", str(idx)]) == 0
    code = main(
        ["count", "--index", str(idx), "-q", str(path), "-f", "8",
         "-o", str(tmp_path / "o")]
    )
    assert code == 1
    assert "f=" in capsys.readouterr().err
    code = main(
        ["link", "--index", str(idx), "-b", str(path), "-q", str(path), "-t", "2",
         "-o", str(tmp_path / "o")]
    )
    assert code == 1
    assert "t=" in capsys.readouterr().err
    for flag, value in (("--gamma", "5"), ("--seed", "9")):
        for tool, extra in (("count", []), ("link", ["-b", str(path)])):
            code = main(
                [tool, "--index", str(idx), *extra, "-q", str(path), flag, value,
                 "-o", str(tmp_path / "o")]
            )
            assert code == 1, (tool, flag)
            assert f"{flag[2:]}=" in capsys.readouterr().err
    # the values the index was built with are accepted
    assert main(
        ["count", "--index", str(idx), "-q", str(path), "--gamma", "2", "--seed", "1337",
         "-o", str(tmp_path / "o")]
    ) == 0


def test_usage_error_count_index_with_bank(bank, tmp_path, capsys):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-o", str(idx)]) == 0
    out = tmp_path / "o"
    code = main(["count", "--index", str(idx), "-b", str(path), "-q", str(path), "-o", str(out)])
    assert code == 1
    assert "count --index reads no bank" in capsys.readouterr().err
    assert not out.exists()


def test_header_reports_loaded_index_params(bank, tmp_path):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(
        ["index", "-b", str(path), "-t", "1", "-f", "12", "--gamma", "3", "--seed", "7",
         "-o", str(idx)]
    ) == 0
    out = tmp_path / "out.tsv"
    assert main(["count", "--index", str(idx), "-q", str(path), "-o", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("# src count k=31 t=1 f=12 gamma=3.0 seed=7 N=")
    assert main(
        ["link", "--index", str(idx), "-b", str(path), "-q", str(path), "--mode", "disk",
         "-o", str(out)]
    ) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("# src link k=31 t=1 f=12 gamma=3.0 seed=7 min_shared=2 mode=disk N=")


def test_default_f_per_command(bank, tmp_path, capsys):
    # a built index's f shows in the header of a count over it
    path, _ = bank
    idx, out = tmp_path / "bank.idx", tmp_path / "out.txt"
    assert main(["index", "-b", str(path), "-t", "1", "-o", str(idx)]) == 0
    runs = {
        "index": ["count", "--index", str(idx)],
        "count": ["count", "-b", str(path), "-t", "1"],
        "link": ["link", "-b", str(path), "-t", "1"],
    }
    for command, f in [("index", 12), ("count", 8), ("link", 12)]:
        assert main(runs[command] + ["-q", str(path), "-o", str(out)]) == 0
        assert f" f={f} " in out.read_text().splitlines()[0]
        assert main([command, "--help"]) == 0
        assert f"fingerprint bits (default {f};" in " ".join(capsys.readouterr().out.split())


def test_default_f_capped_at_2k(bank, tmp_path, capsys):
    # the default f (12 or 8) drops to 2k at small k; an explicit -f above 2k is still refused
    path, _ = bank
    idx, out = tmp_path / "bank.idx", tmp_path / "out.txt"
    assert main(["index", "-b", str(path), "-k", "5", "-t", "1", "-o", str(idx)]) == 0
    runs = [
        (["count", "--index", str(idx)], 10),
        (["link", "-b", str(path), "-k", "5", "-t", "1"], 10),
        (["count", "-b", str(path), "-k", "3", "-t", "1"], 6),
    ]
    for run, f in runs:
        assert main(run + ["-q", str(path), "-o", str(out)]) == 0
        assert f" f={f} " in out.read_text().splitlines()[0]
    for command in ("index", "count", "link"):
        args = [command, "-b", str(path), "-k", "5", "-f", "12", "-o", str(out)]
        assert main(args + ([] if command == "index" else ["-q", str(path)])) == 1
        assert "f must be in [1, 2k] = [1, 10]" in capsys.readouterr().err


def test_runtime_error_index_trailing_bytes(bank, tmp_path, capsys):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-o", str(idx)]) == 0
    with open(idx, "ab") as fh:
        fh.write(b"junk")
    code = main(["count", "--index", str(idx), "-q", str(path), "-o", str(tmp_path / "o")])
    assert code == 2
    assert "4 bytes after the last section" in capsys.readouterr().err


def test_runtime_error_index_flipped_byte(bank, tmp_path, capsys):
    path, _ = bank
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-o", str(idx)]) == 0
    blob = bytearray(idx.read_bytes())
    blob[-1] ^= 1  # a count byte: the layout stays valid, only the checksum differs
    idx.write_bytes(bytes(blob))
    code = main(["count", "--index", str(idx), "-q", str(path), "-o", str(tmp_path / "o")])
    assert code == 2
    assert "checksum" in capsys.readouterr().err


def test_runtime_error_index_other_bank(bank, tmp_path, capsys):
    path, _ = bank
    other = tmp_path / "other.fa"
    write_fasta(other, random_reads(np.random.default_rng(1), 30, 100))
    idx = tmp_path / "bank.idx"
    assert main(["index", "-b", str(path), "-t", "1", "-f", "12", "-o", str(idx)]) == 0
    tmp_dir = tmp_path / "tmp"
    tmp_dir.mkdir()
    for mode in ("ram", "disk"):
        code = main(
            ["link", "--index", str(idx), "-b", str(other), "-q", str(other), "--mode", mode,
             "--tmp-dir", str(tmp_dir), "-o", str(tmp_path / "o")]
        )
        assert code == 2
        assert "bank reads differ from those the index was built from" in capsys.readouterr().err
        assert list(tmp_dir.iterdir()) == []  # neither spill nor id-table file survives
    direct = tmp_path / "direct.txt"
    reused = tmp_path / "reused.txt"
    args = ["-b", str(path), "-q", str(path), "--min-shared", "1"]
    assert main(["link", "-t", "1", "-f", "12"] + args + ["-o", str(direct)]) == 0
    assert main(["link", "--index", str(idx)] + args + ["-o", str(reused)]) == 0
    assert direct.read_bytes() == reused.read_bytes()


def test_usage_error_exact_conflicts_with_f(bank, tmp_path):
    path, _ = bank
    code = main(
        ["count", "-b", str(path), "-q", str(path), "--exact", "-f", "8",
         "-o", str(tmp_path / "o")]
    )
    assert code == 1


@pytest.mark.parametrize("tool", ["count", "link"])
def test_exact_against_index(bank, tmp_path, capsys, tool):
    # --exact means f = 2k for the index's k unless -k is given
    path, _ = bank
    exact, inexact = tmp_path / "k21.idx", tmp_path / "f12.idx"
    for idx, flags in ((exact, ["--exact"]), (inexact, [])):
        assert main(["index", "-b", str(path), "-k", "21", "-t", "1", *flags, "-o", str(idx)]) == 0
    inputs = ["-q", str(path), "-o", str(tmp_path / "o")] + (["-b", str(path)] if tool == "link" else [])
    for flags in (["--exact"], ["-k", "21", "--exact"], ["--exact", "-f", "42"]):
        assert main([tool, "--index", str(exact), *inputs, *flags]) == 0, flags
    assert main([tool, "--index", str(exact), *inputs, "--exact", "-f", "8"]) == 1
    assert "--exact conflicts with an explicit -f value" in capsys.readouterr().err
    assert main([tool, "--index", str(inexact), *inputs, "--exact"]) == 1
    assert "index was built with f=12, not f=42" in capsys.readouterr().err


def _src_command(*args) -> dict:
    """subprocess arguments that run the CLI in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return dict(args=[sys.executable, "-m", "src_connector.cli", *map(str, args)], env=env)


def _src(*args, **run_args):
    """Run the CLI in a child process, which a run blocked on a pipe cannot outlive."""
    return subprocess.run(**_src_command(*args), capture_output=True, text=True, timeout=60, **run_args)


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(c) for c in fh.read().split()]


def _shotgun_bank(tmp_path) -> Path:
    """A bank of 20 000 reads of a 20 kbp genome: 100x coverage, so building
    its id table and querying it take a while."""
    rng = np.random.default_rng(16)
    genome = np.frombuffer(b"ACGT", np.uint8)[rng.integers(0, 4, 20_000)]
    bank = tmp_path / "bank.fa"
    with open(bank, "wb") as fh:
        for i, start in enumerate(rng.integers(0, len(genome) - 100, 20_000).tolist()):
            fh.write(b">r%d\n%b\n" % (i, genome[start : start + 100].tobytes()))
    return bank


def _start_link(tmp_path, threads: str, **popen_args):
    """A child `link --mode disk` of the shotgun bank against itself, with
    its spill directory and -o path."""
    bank = _shotgun_bank(tmp_path)
    spill, out = tmp_path / "spill", tmp_path / "out.txt"
    spill.mkdir()
    args = ["link", "--mode", "disk", "--threads", threads, "--memory-budget", "1048576",
            "--tmp-dir", spill, "-b", bank, "-q", bank, "-o", out]
    proc = subprocess.Popen(**_src_command(*args), **popen_args)
    return proc, spill, out


def _wait_for(proc, ready) -> None:
    deadline = time.monotonic() + 60
    while not ready():
        assert proc.poll() is None, "the run ended before it was signalled"
        assert time.monotonic() < deadline
        time.sleep(0.002)


def _written(pid: int, out: Path) -> int:
    """Bytes the process has written to -o out so far. Until the run ends,
    they are in a file with no name in out's directory: the one the process
    has open there for writing."""
    sizes = [0]
    with suppress(FileNotFoundError):  # the process may end meanwhile
        for fd in os.listdir(f"/proc/{pid}/fd"):
            with suppress(FileNotFoundError):
                if os.path.dirname(os.readlink(f"/proc/{pid}/fd/{fd}")) != str(out.parent):
                    continue
                with open(f"/proc/{pid}/fdinfo/{fd}") as fh:
                    flags = int(next(line for line in fh if line.startswith("flags:")).split()[1], 8)
                if flags & (os.O_WRONLY | os.O_RDWR):
                    sizes.append(os.stat(f"/proc/{pid}/fd/{fd}").st_size)
    return max(sizes)


def _querying(proc, out, threads: str) -> bool:
    started = _written(proc.pid, out) > 4096
    return started and (threads == "1" or len(_children(proc.pid)) == int(threads))


needs_children_list = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs the /proc list of a process's children",
)


@needs_children_list
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("phase", ["build", "query"])
def test_sigterm_unwinds_the_run(tmp_path, phase, threads):
    # a SIGTERM mid-build or mid-query ends the run as Ctrl-C does: exit
    # 128 + 15, no temp file or spill left, no partial output, no worker alive
    proc, spill, out = _start_link(tmp_path, threads)

    seen = {"most": 0, "last": 0, "fell": False}

    def ready() -> bool:
        if phase == "query":
            return _querying(proc, out, threads)
        # the id table is being written: the files open under --tmp-dir
        # rise again once solid counting's spill files have closed
        n = _files_open_under(proc.pid, spill)
        rose = seen["fell"] and n > seen["last"]
        seen["fell"] |= n < seen["most"]
        seen["most"], seen["last"] = max(seen["most"], n), n
        return rose

    workers = []
    try:
        _wait_for(proc, ready)
        workers = _children(proc.pid)
        assert len(workers) == (int(threads) if phase == "query" and threads != "1" else 0)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        left = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
        for pid in left:  # orphans would hold the test's output pipes open
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    assert list(spill.iterdir()) == []
    assert not out.exists()
    assert left == []


@needs_children_list
def test_ignored_sighup_stays_ignored(tmp_path):
    # a run under nohup outlives a hangup sent to its whole process group,
    # the forked query workers included, and writes all of its output
    proc, spill, out = _start_link(
        tmp_path, "2", start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGHUP, signal.SIG_IGN),
    )
    try:
        _wait_for(proc, lambda: _querying(proc, out, "2"))
        os.killpg(proc.pid, signal.SIGHUP)
        assert proc.wait(timeout=60) == 0
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 20_000 and lines[-1].startswith("19999:")
    assert list(spill.iterdir()) == []


def _files_open_under(pid: int, directory: Path) -> int:
    """How many of the process's open files are under directory, by their
    /proc/<pid>/fd links; an unnamed file links to "<directory>/#<inode> (deleted)"."""
    n = 0
    with suppress(FileNotFoundError):  # the process may end meanwhile
        for fd in os.listdir(f"/proc/{pid}/fd"):
            with suppress(FileNotFoundError):
                n += os.readlink(f"/proc/{pid}/fd/{fd}").startswith(f"{directory}{os.sep}")
    return n


@pytest.mark.skipif(not os.path.isdir(f"/proc/{os.getpid()}/fd"), reason="needs /proc/<pid>/fd")
def test_sigkill_leaves_no_spill(tmp_path):
    # a run killed while its 64 spill files are open leaves nothing under
    # --tmp-dir: the files never had names, so the system frees them
    bank = _shotgun_bank(tmp_path)
    spill = tmp_path / "spill"
    spill.mkdir()
    args = ["index", "--memory-budget", "0", "--tmp-dir", spill, "-b", bank, "-o", tmp_path / "x.idx"]
    proc = subprocess.Popen(**_src_command(*args))
    try:
        _wait_for(proc, lambda: _files_open_under(proc.pid, spill) == 64)
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert list(spill.iterdir()) == []


@pytest.mark.skipif(not os.path.isdir(f"/proc/{os.getpid()}/fd"), reason="needs /proc/<pid>/fd")
def test_sigkill_leaves_no_id_table(tmp_path):
    # a link --mode disk killed while it queries its id table leaves nothing
    # under --tmp-dir: the table's file never had a name
    proc, spill, out = _start_link(tmp_path, "1")
    try:
        _wait_for(proc, lambda: _querying(proc, out, "1"))
        assert _files_open_under(proc.pid, spill) == 1
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert list(spill.iterdir()) == []


# runs the CLI on its arguments, and SIGKILLs itself once it has written
# more than 4 KiB of an output and flushed them
_KILLED_PAST_4K = """
import contextlib, os, signal, sys
from src_connector import cli, counter, quasidict, seqio

class Dying:
    def __init__(self, fh):
        self.fh, self.written = fh, 0

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.written += self.fh.write(data)
        if self.written > 4096:
            self.fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)

@contextlib.contextmanager
def dying_output(path, mode="w"):
    with seqio.output_file(path, mode) as fh:
        yield Dying(fh)

counter.output_file = quasidict.output_file = dying_output
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "O_TMPFILE"), reason="needs unnamed files (O_TMPFILE)")
@pytest.mark.parametrize("tool", ["count", "index"])
def test_sigkill_leaves_no_partial_output(tmp_path, tool):
    # a run killed once its output passes 4 KiB leaves no file at -o and no
    # stray file in its directory: the output has no name until it is whole
    bank, out = _shotgun_bank(tmp_path), tmp_path / "out"
    args = [tool, "-b", bank, "-o", out, *(["-q", bank, "--threads", "1"] if tool == "count" else [])]
    command = _src_command(*args)
    command["args"][1:3] = ["-c", _KILLED_PAST_4K]  # in place of -m src_connector.cli
    before = set(tmp_path.iterdir())
    proc = subprocess.run(**command, capture_output=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert not out.exists()
    assert set(tmp_path.iterdir()) == before


def _limit_file_size(limit: int):
    """A preexec_fn: files the child writes stop at limit bytes, and a write
    past it fails with EFBIG instead of raising SIGXFSZ."""

    def preexec():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return preexec


@pytest.mark.skipif(resource is None, reason="needs resource limits")
def test_failed_index_write_leaves_no_file(tmp_path):
    bank, idx = tmp_path / "bank.fa", tmp_path / "bank.idx"
    write_fasta(bank, random_reads(np.random.default_rng(3), 2000, 100))  # a 700 kB index
    proc = _src("index", "-t", "1", "-b", bank, "-o", idx, preexec_fn=_limit_file_size(100_000))
    assert proc.returncode == 2, proc.stderr
    assert "too large" in proc.stderr
    assert not idx.exists()


@pytest.mark.skipif(resource is None, reason="needs resource limits")
def test_failed_last_flush_leaves_no_file(bank, tmp_path):
    # count flushes its header early; the rows fit the write buffer, so the
    # limit, halfway through them, is first met by the flush at the end
    path, _ = bank
    args = ["count", "-b", path, "-q", path, "-t", "1", "--threads", "1", "-o"]
    full, cut = tmp_path / "full.tsv", tmp_path / "cut.tsv"
    assert main([*map(str, args), str(full)]) == 0
    size = full.stat().st_size
    header = sum(len(line) for line in full.read_bytes().splitlines(True) if line.startswith(b"#"))
    assert size - header < io.DEFAULT_BUFFER_SIZE
    proc = _src(*args, cut, preexec_fn=_limit_file_size((header + size) // 2))
    assert proc.returncode == 2, proc.stderr
    assert "too large" in proc.stderr
    assert not cut.exists()


def test_main_restores_signal_handlers(capsys):
    before = [signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGHUP)]
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert [signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGHUP)] == before


@contextmanager
def _fifo(path, data: bytes):
    """path as a FIFO that a thread fills with data once a reader opens it."""
    os.mkfifo(path)

    def write():
        with suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer never read from
        writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.parametrize("gz", [False, True])
def test_pipe_inputs_read_as_files(bank, tmp_path, gz):
    path, _ = bank
    data = path.read_bytes() * 40  # past the pipe's buffer and seqio.BLOCK_BYTES
    data = gzip.compress(data) if gz else data
    reads = tmp_path / ("reads.fa.gz" if gz else "reads.fa")
    reads.write_bytes(data)
    for name, command in (
        ("index", ["index", "-t", "1", "-b"]),
        ("count", ["count", "-t", "1", "-b", str(path), "-q"]),
    ):
        file_out, pipe_out = tmp_path / f"{name}.file", tmp_path / f"{name}.pipe"
        assert main([*command, str(reads), "-o", str(file_out)]) == 0
        with _fifo(tmp_path / f"{name}.fifo", data) as fifo:
            proc = _src(*command, fifo, "-o", pipe_out)
        assert proc.returncode == 0, proc.stderr
        assert pipe_out.read_bytes() == file_out.read_bytes()


def test_one_shot_link_needs_a_regular_bank(bank, tmp_path):
    path, _ = bank
    out = tmp_path / "o"
    with _fifo(tmp_path / "bank.fifo", path.read_bytes()) as fifo:
        proc = _src("link", "-b", fifo, "-q", path, "-t", "1", "-o", out)
    assert proc.returncode == 2
    assert "must be a regular file" in proc.stderr
    assert not out.exists()


def test_runtime_error_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.fa"
    bad.write_text("this is not fasta\n")
    code = main(
        ["count", "-b", str(bad), "-q", str(bad), "-o", str(tmp_path / "o")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_runtime_error_missing_file(tmp_path):
    code = main(
        ["count", "-b", str(tmp_path / "nope.fa"), "-q", "x", "-o", str(tmp_path / "o")]
    )
    assert code == 2


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "1000", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_keys,f,structure,build_s,query_s,peak_mem_bytes,fp_rate,build_cpu_s,query_cpu_s"
    assert len(lines) == 3  # quasidict + hashmap rows
    capsys.readouterr()
