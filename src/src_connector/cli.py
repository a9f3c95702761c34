"""Command line front end: src {index,count,link,bench}."""

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bench import CSV_COLUMNS, DEFAULT_SIZES, run_bench
from .counter import build_count_table, run_src_counter
from .kmers import DEFAULT_MEMORY_BUDGET, MAX_K
from .linker import DEFAULT_MIN_SHARED, run_src_linker
from .mphf import DEFAULT_GAMMA, DEFAULT_MASTER_SEED
from .quasidict import build_bank_index, load_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _arg_type(convert, ok, expected: str):
    """argparse type: convert(text), rejected unless ok(value) holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _whole(text: str) -> int:
    value = float(text)  # accepts the 1e5 form
    return int(value) if value.is_integer() else 0


_at_least_one = _arg_type(int, lambda v: v >= 1, "an integer >= 1")
_gamma = _arg_type(float, lambda v: math.isfinite(v) and v > 1.0, "a finite number > 1")
_seed = _arg_type(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2^64)")
_sizes = _arg_type(
    lambda text: [_whole(s) for s in text.split(",") if s],
    lambda v: v and min(v) >= 1,
    "comma-separated integers >= 1",
)


def _add_common(sub: argparse.ArgumentParser, default_f: int) -> None:
    sub.add_argument("-b", "--bank", help="bank read file (FASTA/FASTQ, optionally gzipped)")
    sub.add_argument("-k", type=int, default=None, help=f"k-mer length (default {MAX_K})")
    sub.add_argument(
        "-t", "-c", "--solidity", dest="t", type=int, default=None,
        help="solidity threshold: index k-mers occurring >= t times (default 2)",
    )
    sub.add_argument(
        "-f", type=int, default=None,
        help=f"fingerprint bits (default {default_f}; <= 2k)",
    )
    sub.add_argument(
        "--exact", action="store_true", help="set f=2k: no false positives"
    )
    sub.add_argument("--gamma", type=_gamma, default=DEFAULT_GAMMA)
    sub.add_argument("--seed", type=_seed, default=DEFAULT_MASTER_SEED)
    sub.add_argument(
        "--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
        help="bytes of buffered k-mer codes before counting spills to disk",
    )
    sub.add_argument("--tmp-dir", default=None)
    sub.add_argument("-o", "--out", required=True, help="output path")


def _resolve_params(args, default_f: int) -> tuple[int, int, int]:
    k = args.k if args.k is not None else MAX_K
    if args.exact:
        if args.f is not None and args.f != 2 * k:
            raise UsageError("--exact conflicts with an explicit -f value")
        f = 2 * k
    else:
        f = args.f if args.f is not None else default_f
    t = args.t if args.t is not None else 2
    _check_k_f(k, f)
    if t < 1:
        raise UsageError("t must be >= 1")
    return k, t, f


def _check_k_f(k: int, f: int) -> None:
    if not 1 <= k <= MAX_K:
        raise UsageError(f"k must be <= {MAX_K} (and >= 1)")
    if not 1 <= f <= 2 * k:
        raise UsageError(f"f must be in [1, 2k] = [1, {2 * k}]")


def _load_prebuilt(args, k, t, f):
    qd, counts = load_index(args.index)
    if args.k is not None and qd.k != k:
        raise UsageError(f"index was built with k={qd.k}, not k={k}")
    if args.t is not None and qd.t != t:
        raise UsageError(f"index was built with t={qd.t}, not t={t}")
    if (args.f is not None or args.exact) and qd.f != f:
        raise UsageError(f"index was built with f={qd.f}, not f={f}")
    return qd, counts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="src", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_index = subs.add_parser("index", help="build and save a reusable bank index")
    _add_common(p_index, default_f=12)

    p_count = subs.add_parser("count", help="estimate per-read abundance in a bank")
    _add_common(p_count, default_f=8)
    p_count.add_argument("-q", "--query", required=True, help="query read file")
    p_count.add_argument("--index", help="prebuilt bank index (from 'src index')")
    p_count.add_argument("--threads", type=_at_least_one, default=os.cpu_count() or 1)

    p_link = subs.add_parser("link", help="report bank reads similar to each query read")
    _add_common(p_link, default_f=12)
    p_link.add_argument("-q", "--query", required=True, help="query read file")
    p_link.add_argument("--index", help="prebuilt bank index (from 'src index')")
    p_link.add_argument("--threads", type=_at_least_one, default=os.cpu_count() or 1)
    p_link.add_argument(
        "--min-shared", type=_at_least_one, default=DEFAULT_MIN_SHARED,
        help="report targets sharing at least this many non-overlapping k-mers",
    )
    p_link.add_argument("--mode", choices=("ram", "disk"), default="ram")
    p_link.add_argument("--no-self", action="store_true", help="suppress self matches")
    p_link.add_argument("--sidecar", help="also write a read id -> header mapping file")

    p_bench = subs.add_parser("bench", help="quasi-dictionary vs hash map benchmark")
    p_bench.add_argument(
        "--sizes", type=_sizes, default=list(DEFAULT_SIZES),
        help="comma-separated key-set sizes",
    )
    p_bench.add_argument("-f", type=int, default=12)
    p_bench.add_argument("-k", type=int, default=MAX_K)
    p_bench.add_argument("--gamma", type=_gamma, default=DEFAULT_GAMMA)
    p_bench.add_argument("--seed", type=_seed, default=DEFAULT_MASTER_SEED)
    p_bench.add_argument("-o", "--out", required=True, help="CSV report path")
    return parser


def _require_bank(args):
    if not args.bank:
        raise UsageError("a bank file (-b) is required")
    if not Path(args.bank).exists():
        raise FileNotFoundError(f"bank file not found: {args.bank}")


def _build(args, k, t, f):
    _require_bank(args)
    return build_bank_index(
        args.bank, k, t, f, gamma=args.gamma, master_seed=args.seed,
        memory_budget=args.memory_budget, tmp_dir=args.tmp_dir,
    )


def cmd_index(args) -> int:
    k, t, f = _resolve_params(args, default_f=12)
    qd, solid = _build(args, k, t, f)
    qd.save(args.out, build_count_table(qd, solid.codes, solid.counts))
    return EXIT_OK


def cmd_count(args) -> int:
    k, t, f = _resolve_params(args, default_f=8)
    if args.index:
        qd, counts = _load_prebuilt(args, k, t, f)
        if counts is None:
            raise ValueError(f"{args.index}: index carries no count table")
    else:
        qd, solid = _build(args, k, t, f)
        counts = build_count_table(qd, solid.codes, solid.counts)
        del solid
    run_src_counter(qd, counts, args.query, args.out, threads=args.threads)
    return EXIT_OK


def cmd_link(args) -> int:
    k, t, f = _resolve_params(args, default_f=12)
    if args.index:
        qd = _load_prebuilt(args, k, t, f)[0]
    else:
        qd = _build(args, k, t, f)[0]  # the solid set is dropped before the id table is built
    _require_bank(args)  # the id table is always rebuilt from the bank reads
    run_src_linker(
        qd, args.bank, args.query, args.out,
        min_shared=args.min_shared, mode=args.mode, threads=args.threads,
        no_self=args.no_self, tmp_dir=args.tmp_dir, sidecar_path=args.sidecar,
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    _check_k_f(args.k, args.f)
    rows = run_bench(
        sizes=args.sizes, f=args.f, k=args.k, gamma=args.gamma, seed=args.seed,
        out_path=args.out,
    )
    print("\t".join(CSV_COLUMNS))
    for row in rows:
        print("\t".join(str(row.get(col, "")) for col in CSV_COLUMNS))
    return EXIT_OK


_COMMANDS = {
    "index": cmd_index,
    "count": cmd_count,
    "link": cmd_link,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"src: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return exc.code or EXIT_OK
    except Exception as exc:
        print(f"src: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
