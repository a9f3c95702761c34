"""Every name the benchmark's tracer wraps must still exist and be called.

perfbench/tracer.py raises HookError when a hooked function or method is
gone; running it around a trivial command makes such a refactor fail here
rather than only in a traced benchmark run. A hook that still exists but is
bypassed reads 0 s, so the query-path hooks must also record spans.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from _datagen import random_reads, write_fasta
from src_connector.bitpack import KEY_CHUNK
from src_connector.seqio import BLOCK_BYTES

ROOT = Path(__file__).resolve().parent.parent


def _traced(spans_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "--", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return Counter(span[1] for span in json.loads(spans_path.read_text())["spans"])


def test_tracer_installs_every_hook(tmp_path):
    _traced(tmp_path / "spans.json", "--version")


def test_query_path_hooks_record_spans(tmp_path):
    rng = np.random.default_rng(3)
    bank_reads = random_reads(rng, 40, 80)
    bank, query = tmp_path / "bank.fa", tmp_path / "query.fa"
    write_fasta(bank, bank_reads)
    # one count batch (the query fits one parser block) whose k-mers fill
    # more than one MPHF query block: 73 reads of 970 k-mers
    write_fasta(query, bank_reads + random_reads(rng, KEY_CHUNK // 900 + 1, 1000))
    assert query.stat().st_size <= BLOCK_BYTES
    idx = tmp_path / "bank.idx"
    built = _traced(tmp_path / "index.json", "index", "-b", str(bank), "-t", "1", "-o", str(idx))
    # the build places each k-mer as the MPHF settles it, and queries nothing
    assert built["mphf.build"] == built["quasidict.create"] == 1
    assert built["mphf.query"] == built["quasidict.query"] == 0
    names = _traced(
        tmp_path / "count.json", "count", "--index", str(idx), "-q", str(query),
        "--threads", "1", "-o", str(tmp_path / "out.tsv"),
    )
    for name in (
        "kmers.encode", "bitpack.rank1", "mphf.query", "quasidict.query", "bitpack.get_many",
        "counter.estimate", "counter.format", "seqio.parse",
    ):
        assert name in names, f"{name} recorded no span"
    # blocks are walked inside the call, so mphf.keys_per_call counts a whole batch
    assert names["mphf.query"] == names["quasidict.query"] == 1


def test_link_hooks_record_spans(tmp_path):
    bank = tmp_path / "bank.fa"
    write_fasta(bank, random_reads(np.random.default_rng(4), 40, 80))
    for mode, get in (("ram", "linker.ram_get"), ("disk", "linker.disk_get")):
        names = _traced(
            tmp_path / f"link-{mode}.json", "link", "-b", str(bank), "-q", str(bank),
            "-t", "1", "--mode", mode, "--threads", "1", "--tmp-dir", str(tmp_path),
            "-o", str(tmp_path / f"{mode}.txt"),
        )
        for name in ("kmers.encode", "linker.similarity", get, "linker.format", "seqio.parse"):
            assert name in names, f"{name} recorded no span in link --mode {mode}"
