"""The package's public names, and what importing it does to the process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import src_connector

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
