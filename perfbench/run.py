"""End-to-end and per-layer benchmark of the src count and link tools.

    python3 perfbench/run.py [--workload count-index|link-ram|link-disk|link-disk-1t|all]
                             [--seed 1] [--seconds 20] [--trace 0|1]

Generates a seeded shotgun read set, runs the working tree's CLI
(`python3 -m src_connector.cli` with PYTHONPATH=src) in child processes one
at a time, checks every output row against an exact numpy oracle, and prints
a report followed by one JSON line. With --trace 0 the JSON carries the
end-to-end metrics; with --trace 1 it carries per-layer metrics from a traced
replay of the same commands (see tracer.py), and the spans are written to
.perfbench/<workload>-<seed>/spans.json.

Peak RSS and CPU come from os.wait4 on each child, never RUSAGE_CHILDREN,
whose maximum over all children would let the set-up run mask the timed one.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import datagen
import layers
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

K = 31
T = 2
SETUP_RUNS = 5  # set-up repeats per run; setup_s is their median
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Workload:
    genome_bp: int
    bank_reads: int  # 20x coverage of the genome
    query_reads: int
    alien_queries: int  # uniform random reads among the queries
    f: int
    threads: int
    timed: list[str]  # CLI arguments; {bank} {query} {index} {out} {f} are filled in

    @property
    def tool(self) -> str:
        return self.timed[0]

    @property
    def uses_index(self) -> bool:
        return "{index}" in self.timed


SETUP = ["index", "-b", "{bank}", "-t", str(T), "-f", "{f}", "-o", "{index}"]
LINK = ["link", "-b", "{bank}", "-q", "{query}", "-t", str(T), "-f", "{f}", "--min-shared", "2"]

# Why each gated workload exists is recorded in BENCHMARK.json. The link
# workloads share their inputs; 2048 queries make two 1024-read batches, so
# both threads of link-disk have work. link-disk is not in BENCHMARK.json:
# its two threads share one DiskIdTable file handle, whose seek/read race
# loses targets in every run, so it reports "correct": false until that is
# fixed. link-disk-1t measures the same disk-mode path at 1 thread, where
# nothing fails; it does not stand in for link-disk's correctness.
WORKLOADS = {
    "count-index": Workload(
        genome_bp=200_000, bank_reads=40_000, query_reads=80_000, alien_queries=40_000,
        f=8, threads=2,
        timed=["count", "--index", "{index}", "-q", "{query}", "-f", "{f}", "--threads", "2", "-o", "{out}"],
    ),
    "link-ram": Workload(
        genome_bp=100_000, bank_reads=20_000, query_reads=2_048, alien_queries=0,
        f=12, threads=1,
        timed=LINK + ["--mode", "ram", "--threads", "1", "-o", "{out}"],
    ),
    "link-disk": Workload(
        genome_bp=100_000, bank_reads=20_000, query_reads=2_048, alien_queries=0,
        f=12, threads=2,
        # below the bank's 11 MB of k-mer codes, so solid counting spills
        timed=LINK + ["--mode", "disk", "--threads", "2", "--memory-budget", str(8 << 20), "-o", "{out}"],
    ),
    "link-disk-1t": Workload(
        genome_bp=100_000, bank_reads=20_000, query_reads=2_048, alien_queries=0,
        f=12, threads=1,
        timed=LINK + ["--mode", "disk", "--threads", "1", "--memory-budget", str(8 << 20), "-o", "{out}"],
    ),
}


class BenchError(Exception):
    pass


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    rc: int


@dataclass
class Inputs:
    bank: Path
    query: Path
    bank_bytes: int
    query_bytes: int
    solid: oracle.SolidSet
    alien: np.ndarray  # per query read
    expect: oracle.CountOracle | oracle.LinkOracle

    def check(self, text: str) -> tuple[oracle.CheckResult, np.ndarray | None]:
        """Row check of one output, plus the reported k-mers per read for count."""
        if isinstance(self.expect, oracle.CountOracle):
            return oracle.check_count(text, self.expect)
        return oracle.check_link(text, self.expect), None


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    genome = datagen.random_genome(rng, wl.genome_bp)
    bank = datagen.shotgun_reads(rng, genome, wl.bank_reads)
    query = datagen.shotgun_reads(rng, genome, wl.query_reads - wl.alien_queries)
    if wl.alien_queries:
        query = datagen.shuffled_union(rng, query, datagen.alien_reads(rng, wl.alien_queries))
    paths = work / "bank.fa", work / "query.fa"
    bank_bytes = datagen.write_fasta(paths[0], bank)
    query_bytes = datagen.write_fasta(paths[1], query)

    bank_codes = oracle.kmer_codes(bank.bases, K)
    query_codes = oracle.kmer_codes(query.bases, K)
    solid = oracle.solid_kmers(bank_codes, T)
    if wl.tool == "count":
        expect = oracle.count_oracle(solid, query_codes)
    else:
        expect = oracle.link_oracle(solid, bank_codes, query_codes, K, 2)
    return Inputs(*paths, bank_bytes, query_bytes, solid, query.alien, expect)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(work / "tmp")  # spill and disk id-table files stay in the checkout
    return env


class Spawner:
    """Client of spawner.py, which runs each child and reports its os.wait4 rusage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], work: Path) -> Sample:
        req = {"argv": argv, "cwd": str(ROOT), "env": child_env(work), "log": str(work / "children.log"),
               "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process exited")
        return Sample(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "src_connector.cli", *args]


def fill(args: list[str], **paths) -> list[str]:
    return [a.format(**{k: str(v) for k, v in paths.items()}) for a in args]


def digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


@dataclass
class Timed:
    samples: list[Sample] = field(default_factory=list)
    rows: int = 0
    failed: int = 0
    first_error: str = ""
    digests: set[str] = field(default_factory=set)
    reported: np.ndarray | None = None

    def check(self, inputs: Inputs, out: Path, rc: int) -> None:
        text = out.read_text() if out.exists() else ""
        result, reported = inputs.check(text)
        self.rows += result.rows
        if rc != 0 or not out.exists():
            self.failed += result.rows  # a failed run fails all of its reads
            self.first_error = self.first_error or f"exit code {rc}"
            return
        self.failed += result.n_failed
        self.first_error = self.first_error or result.first_error
        self.digests.add(digest(out))
        if reported is not None:
            self.reported = reported


def stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def run(spawner: Spawner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "src_connector" / "cli.py").is_file():
        raise BenchError(f"no src_connector package under {ROOT / 'src'}")
    wl = WORKLOADS[workload]
    work = WORK_DIR / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)

    missed = oracle.self_test(seed)
    inputs = make_inputs(wl, seed, work)
    index = work / "bank.idx"
    paths = dict(bank=inputs.bank, query=inputs.query, index=index, f=wl.f)

    setup = []
    for _ in range(SETUP_RUNS):
        s = spawner.run(cli(fill(SETUP, **paths)), work)
        if s.rc != 0:
            raise BenchError(f"set-up 'src index' exited {s.rc}; see {work / 'children.log'}")
        setup.append(s)

    timed = Timed()
    out = work / "out.txt"
    measured = 0.0
    while len(timed.samples) < MIN_TIMED_RUNS or measured < seconds:
        out.unlink(missing_ok=True)
        s = spawner.run(cli(fill(wl.timed, out=out, **paths)), work)
        timed.samples.append(s)
        measured += s.wall_s
        timed.check(inputs, out, s.rc)

    result = {
        "workload": workload, "seed": seed,
        "inputs": {
            "genome_bp": wl.genome_bp, "bank_reads": wl.bank_reads,
            "bank_bytes": inputs.bank_bytes, "query_reads": wl.query_reads,
            "alien_queries": wl.alien_queries, "query_bytes": inputs.query_bytes,
            "distinct_kmers": inputs.solid.n_distinct, "solid_kmers": len(inputs.solid.codes),
        },
        "checker_self_test_missed": missed,
    }
    wall = [s.wall_s for s in timed.samples]
    end_to_end = {
        "setup_s": ("s", stats([s.wall_s for s in setup])),
        "query_reads_per_s": ("1/s", stats([wl.query_reads / w for w in wall])),
        "cpu_s": ("s", stats([s.cpu_s for s in timed.samples])),
        "peak_rss_mib": ("MiB", stats([s.peak_rss_mib for s in timed.samples])),
        "setup_peak_rss_mib": ("MiB", stats([s.peak_rss_mib for s in setup])),
        "index_bits_per_kmer": (
            "bits", stats([8 * index.stat().st_size / len(inputs.solid.codes)]),
        ),
    }
    result["end_to_end"] = {k: {"unit": u, **v} for k, (u, v) in end_to_end.items()}
    result["samples"] = {"setup": [vars(s) for s in setup], "timed": [vars(s) for s in timed.samples]}
    if wl.alien_queries and timed.reported is not None:
        rows = inputs.alien & (timed.reported >= 0)  # alien reads whose row passed the check
        hits = int((timed.reported[rows] - inputs.expect.n_kmers[rows]).sum())
        windows = int(rows.sum()) * (datagen.READ_LEN - K + 1)
        result["fp_kmer_rate"] = {"hits": hits, "kmers": windows, "value": hits / windows}

    trace_ok = True
    if trace:
        traced = trace_run(spawner, wl, inputs, work, paths, timed)
        trace_ok = traced["output_equal"]
        result["trace"] = traced
        timed_wall = statistics.median(wall)
        result["per_layer"] = layers.metrics(
            traced["commands"], bank=str(inputs.bank), threads=wl.threads,
            overhead_ratio=traced["timed_wall_s"] / timed_wall,
        )
    result["distinct_outputs"] = len(timed.digests)
    result["error_rate"] = {"failed": timed.failed, "rows": timed.rows,
                            "value": timed.failed / timed.rows, "first_error": timed.first_error}
    result["correct"] = not missed and timed.failed == 0 and trace_ok
    return result


def trace_run(spawner: Spawner, wl: Workload, inputs: Inputs, work: Path, paths: dict, timed: Timed) -> dict:
    """Replay the workload's commands under the tracer; outputs must not change."""
    traced_paths = dict(paths)
    commands = []
    if wl.uses_index:  # the timed command needs the set-up's index
        traced_paths["index"] = work / "traced.idx"
        commands.append(("setup", fill(SETUP, **traced_paths)))
    out = work / "traced_out.txt"
    commands.append(("timed", fill(wl.timed, out=out, **traced_paths)))

    records = []
    for role, args in commands:
        spans = work / f"spans_{role}.json"
        s = spawner.run([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args], work)
        if s.rc != 0:
            raise BenchError(f"traced {role} command exited {s.rc}; see {work / 'children.log'}")
        records.append({**json.loads(spans.read_text()), "role": role, "argv": args, "wall_s": s.wall_s})
        spans.unlink()
    equal = digest(out) in timed.digests
    if wl.uses_index:
        equal = equal and digest(traced_paths["index"]) == digest(paths["index"])
    timed.check(inputs, out, 0)
    (work / "spans.json").write_text(json.dumps({"commands": records}))
    return {"commands": records, "timed_wall_s": records[-1]["wall_s"], "output_equal": equal}


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    inp = result["inputs"]
    print(f"workload {result['workload']}, seed {result['seed']}")
    print(
        f"inputs: genome {inp['genome_bp']} bp; bank {inp['bank_reads']} reads "
        f"({inp['bank_bytes']} B); query {inp['query_reads']} reads ({inp['alien_queries']} alien, "
        f"{inp['query_bytes']} B); {inp['distinct_kmers']} distinct and "
        f"{inp['solid_kmers']} solid k-mers (k={K}, t={T})"
    )
    missed = result["checker_self_test_missed"]
    print("checker self-test:", "FAIL, not flagged: " + "; ".join(missed) if missed else "ok")
    metrics = {}
    for name, m in result["end_to_end"].items():
        print(f"  {name:22s} {m['median']:12.4f} {m['unit']:5s} median of {m['n']}, "
              f"quartiles {m['q1']:.4f} .. {m['q3']:.4f}")
        metrics[name] = {"value": m["median"], "unit": m["unit"]}
    err = result["error_rate"]
    print(f"  {'error_rate':22s} {err['value']:12.6f} ratio {err['failed']} of {err['rows']} "
          f"query reads failed the check" + (f"; first: {err['first_error']}" if err["failed"] else ""))
    if "fp_kmer_rate" in result:
        fp = result["fp_kmer_rate"]
        print(f"  {'fp_kmer_rate':22s} {fp['value']:12.6f} ratio {fp['hits']} indexed hits of "
              f"{fp['kmers']} alien-read k-mers")
    print(f"  distinct outputs over the checked runs: {result['distinct_outputs']}")
    if trace:
        t = result["trace"]
        print(f"traced replay: outputs {'equal' if t['output_equal'] else 'DIFFER'}; "
              f"spans in {WORK_DIR.name}/{result['workload']}-{result['seed']}/spans.json")
        metrics = {}
        for name, (value, unit) in result["per_layer"].items():
            print(f"  {name:28s} {value:14.6f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20, help="timed-command seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spawner = Spawner()
    results = []
    try:
        for name in names:
            result = run(spawner, name, args.seed, args.seconds, bool(args.trace))
            metrics = report(result, bool(args.trace))
            result.pop("trace", None)
            work = WORK_DIR / f"{name}-{args.seed}"
            (work / "result.json").write_text(json.dumps(result, indent=1))
            for bulky in ("bank.fa", "query.fa", "bank.idx", "traced.idx", "out.txt", "traced_out.txt"):
                (work / bulky).unlink(missing_ok=True)
            results.append((name, result, metrics))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}.{k}": v for name, _, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r, _ in results),
        "attempted": sum(r["error_rate"]["rows"] for _, r, _ in results),
        "failed": sum(r["error_rate"]["failed"] for _, r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
