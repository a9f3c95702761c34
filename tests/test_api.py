"""The package's public names, and what importing it does to the process."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import src_connector
from src_connector.quasidict import _CHECKSUM_AT, _HEADER
from src_connector.seqio import BankDigest, ReadBatch

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in src_connector.__all__ if not hasattr(src_connector, name)]
    assert missing == []
    assert len(set(src_connector.__all__)) == len(src_connector.__all__)


def test_star_import():
    namespace = {}
    exec("from src_connector import *", namespace)
    assert set(src_connector.__all__) <= namespace.keys()


def _run_child(code, **env_vars):
    """Stdout of a fresh interpreter that runs code with the package importable,
    with OPENBLAS_NUM_THREADS unset unless given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "imports, env_vars, want",
    [
        ("src_connector", {}, "1"),  # no BLAS thread pool is started
        ("src_connector", {"OPENBLAS_NUM_THREADS": "3"}, "3"),  # the user's value wins
        ("numpy, src_connector", {}, "None"),  # too late to matter: left alone
    ],
    ids=["unset", "user-set", "numpy-first"],
)
def test_import_sets_openblas_threads(imports, env_vars, want):
    code = f"import os, {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run_child(code, **env_vars) == want


def test_cli_import_loads_no_process_pool():
    # src index and --threads 1 runs start no worker, so they need not load these
    code = (
        "import sys, src_connector.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    assert _run_child(code) == "[]"


def test_commands_load_no_openssl(tmp_path):
    # hashlib's import maps OpenSSL's libcrypto (_hashlib), 3.4-3.6 MiB of RSS
    # that no command uses; index, count and a one-shot link run without it
    bank, query, index = tmp_path / "bank.fa", tmp_path / "query.fa", tmp_path / "bank.idx"
    seqs = ["ACGTTGCAAGGCTTACGATCGATCGGATCCA" * 3, "TTGCAAGGCTTACGATCGATCGGATCCAACG" * 2]
    bank.write_text("".join(f">b{i}\n{s}\n" for i, s in enumerate(seqs * 2)))
    query.write_text("".join(f">q{i}\n{s}\n" for i, s in enumerate(seqs)))
    runs = [
        ["index", "-b", bank, "-k", "21", "-t", "2", "-o", index],
        ["count", "--index", index, "-q", query, "-o", tmp_path / "count.tsv"],
        ["link", "-b", bank, "-q", query, "-k", "21", "-t", "2", "--threads", "1", "-o", tmp_path / "link.tsv"],
    ]
    runs = [list(map(str, run)) for run in runs]
    code = f"import sys; from src_connector import cli; print([cli.main(a) for a in {runs!r}], '_hashlib' in sys.modules)"
    assert _run_child(code) == "[0, 0, 0] False"

    data = index.read_bytes()
    checksum = hashlib.blake2b(data[:_CHECKSUM_AT], digest_size=16)
    checksum.update(data[_HEADER.size :])
    assert data[_CHECKSUM_AT : _HEADER.size] == checksum.digest()
    digest = BankDigest()
    digest.update(ReadBatch.from_strings(seqs).seq)
    assert digest.digest() == hashlib.blake2b("".join(s + "\n" for s in seqs).encode(), digest_size=16).digest()


def test_blake2b_falls_back_to_hashlib():
    # where CPython is built without _blake2, seqio takes hashlib's blake2b
    code = (
        "import hashlib, importlib, sys; from src_connector import seqio; "
        "sys.modules['_blake2'] = None; importlib.reload(seqio); "
        "d = seqio.BankDigest(); d.update(b'ACGT\\n'); "
        "print(seqio.blake2b is hashlib.blake2b, "
        "d.digest() == hashlib.blake2b(b'ACGT\\n', digest_size=16).digest())"
    )
    assert _run_child(code) == "True True"
