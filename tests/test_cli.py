import numpy as np
import pytest

from src_connector import linker
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
    monkeypatch.setattr(linker, "DEFAULT_BATCH_READS", 10)  # several batches, in order
    code = main(
        ["link", "-b", str(path), "-q", str(path), "-t", "1", "-o", str(out),
         "--threads", "2", "--sidecar", str(sidecar)]
    )
    assert code == 0
    lines = sidecar.read_text().splitlines()
    assert len(lines) == len(seqs)
    assert lines[0] == "0\tread0"
    assert lines == [f"{i}\tread{i}" for i in range(len(seqs))]


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
    assert "k=31 t=1 f=12" in header
    assert "gamma=3.0 seed=7" in header


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
