"""Command line front end: src {index,count,link,bench}."""

import argparse
import ctypes
import functools
import math
import os
import signal
import sys
from pathlib import Path

from . import __version__
from .bench import CSV_COLUMNS, DEFAULT_SIZES, run_bench
from .counter import run_src_counter
from .kmers import DEFAULT_MEMORY_BUDGET, MAX_K
from .linker import DEFAULT_MIN_SHARED, run_src_linker
from .mphf import DEFAULT_GAMMA, DEFAULT_MASTER_SEED
from .quasidict import build_bank_index, load_index
from .seqio import BLOCK_BYTES, STOP_SIGNALS

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
_non_negative = _arg_type(int, lambda v: v >= 0, "an integer >= 0")
_gamma = _arg_type(float, lambda v: math.isfinite(v) and v > 1.0, "a finite number > 1")
_seed = _arg_type(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2^64)")
_sizes = _arg_type(
    lambda text: [_whole(s) for s in text.split(",") if s],
    lambda v: v and min(v) >= 1,
    "comma-separated integers >= 1",
)


def _add_common(sub: argparse.ArgumentParser, default_f: int) -> None:
    sub.set_defaults(default_f=default_f)  # the -f that _build uses, and --help gives
    sub.add_argument("-b", "--bank", help="bank read file (FASTA/FASTQ, optionally gzipped)")
    sub.add_argument("-k", type=int, default=None, help=f"k-mer length (default {MAX_K})")
    sub.add_argument(
        "-t", "-c", "--solidity", dest="t", type=_at_least_one, default=None,
        help="solidity threshold: index k-mers occurring >= t times (default 2)",
    )
    sub.add_argument(
        "-f", type=int, default=None,
        help=f"fingerprint bits (default {default_f}; at most 2k, which caps the default too)",
    )
    sub.add_argument(
        "--exact", action="store_true", help="set f=2k: no false positives"
    )
    sub.add_argument(
        "--gamma", type=_gamma, default=None,
        help=f"MPHF load factor: slots per key at each level (default {DEFAULT_GAMMA})",
    )
    sub.add_argument(
        "--seed", type=_seed, default=None, help=f"MPHF master seed (default {DEFAULT_MASTER_SEED})"
    )
    sub.add_argument(
        "--memory-budget", type=_non_negative, default=DEFAULT_MEMORY_BUDGET,
        help="bytes of buffered k-mer codes before counting spills to disk",
    )
    sub.add_argument("--tmp-dir", default=None)
    sub.add_argument("-o", "--out", required=True, help="output path")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS and Windows have no affinity call


def _add_threads(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threads", type=_at_least_one, default=_usable_cpus(),
        help="worker processes, forked once the index is built; 1 runs in this process "
        "(default: the CPUs this process may run on)",
    )


def _given_f(args, k: int, default: int | None = None) -> int | None:
    """-f if given, else default; with --exact 2k, which any other -f conflicts with."""
    if not args.exact:
        return default if args.f is None else args.f
    if args.f is not None and args.f != 2 * k:
        raise UsageError("--exact conflicts with an explicit -f value")
    return 2 * k


def _check_k_f(k: int, f: int) -> None:
    if not 1 <= k <= MAX_K:
        raise UsageError(f"k must be <= {MAX_K} (and >= 1)")
    if not 1 <= f <= 2 * k:
        raise UsageError(f"f must be in [1, 2k] = [1, {2 * k}]")


def _load_prebuilt(args):
    """The index and its count table; each parameter given must be the index's."""
    qd, counts = load_index(args.index)
    f = _given_f(args, args.k if args.k is not None else qd.k)
    for name, value in dict(k=args.k, t=args.t, f=f, gamma=args.gamma, seed=args.seed).items():
        if value is not None and value != qd.params[name]:
            raise UsageError(f"index was built with {name}={qd.params[name]}, not {name}={value}")
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
    _add_threads(p_count)

    p_link = subs.add_parser("link", help="report bank reads similar to each query read")
    _add_common(p_link, default_f=12)
    p_link.add_argument("-q", "--query", required=True, help="query read file")
    p_link.add_argument("--index", help="prebuilt bank index (from 'src index')")
    _add_threads(p_link)
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


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is not there yet
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args) -> None:
    """Refuse, before any index is built or loaded, the paths a run cannot
    use: a missing or extra -b; an input (-b, -q, --index) that does not
    exist or is a directory; an output (-o, --sidecar) that is a directory
    or whose directory does not exist; a --tmp-dir that is not a directory;
    and an output that names one of the run's input files or the other
    output, since opening it would destroy that file. FIFOs and devices
    such as /dev/stdin and /dev/null pass, and an output that is one is let
    be."""
    if args.command != "bench":
        reads_bank = not (args.command == "count" and args.index)
        if reads_bank and not args.bank:
            raise UsageError("a bank file (-b) is required")
        if args.bank and not reads_bank:
            raise UsageError("count --index reads no bank; drop -b (the index holds the bank's counts)")
    inputs = [
        (flag, getattr(args, dest, None)) for flag, dest in (("-b", "bank"), ("-q", "query"), ("--index", "index"))
    ]
    for flag, path in inputs:
        if path and not os.path.exists(path):
            raise FileNotFoundError(f"{flag} {path}: no such file")
        if path and os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path}: is a directory")
    outputs = [("-o", args.out), ("--sidecar", getattr(args, "sidecar", None))]
    for flag, path in outputs:
        if path and os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path}: is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"{flag} {path}: its directory does not exist")
    tmp_dir = getattr(args, "tmp_dir", None)
    if tmp_dir is not None and not os.path.isdir(tmp_dir):
        raise NotADirectoryError(f"--tmp-dir {tmp_dir}: not an existing directory")
    for flag, path in outputs:
        if not path or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        for other_flag, other in [*inputs, outputs[0]]:
            if other and other_flag != flag and _same_file(path, other):
                raise ValueError(
                    f"{flag} {path} is the same file as {other_flag} {other}; refusing to overwrite it"
                )


def _build(args):
    """The bank's index and count table (build_bank_index), from the flags, each
    defaulted and range-checked."""
    k = args.k if args.k is not None else MAX_K
    f = _given_f(args, k, min(args.default_f, 2 * k))  # an explicit -f is not capped
    _check_k_f(k, f)
    return build_bank_index(
        args.bank, k, 2 if args.t is None else args.t, f,
        gamma=DEFAULT_GAMMA if args.gamma is None else args.gamma,
        master_seed=DEFAULT_MASTER_SEED if args.seed is None else args.seed,
        memory_budget=args.memory_budget, tmp_dir=args.tmp_dir,
    )


def cmd_index(args) -> int:
    qd, counts = _build(args)
    qd.save(args.out, counts)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.index:
        qd, counts = _load_prebuilt(args)
        if counts is None:
            raise ValueError(f"{args.index}: index carries no count table")
    else:
        qd, counts = _build(args)
    run_src_counter(qd, counts, args.query, args.out, threads=args.threads)
    return EXIT_OK


def cmd_link(args) -> int:
    if args.index:  # the id table is still rebuilt from the bank reads
        qd = _load_prebuilt(args)[0]
    elif not Path(args.bank).is_file():  # a pipe cannot be read twice
        raise ValueError(f"{args.bank}: link without --index reads the bank twice, so it must be a regular file")
    else:
        qd = _build(args)[0]
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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds for this process, once, and so for the
    workers it forks. A block of 8 * BLOCK_BYTES (1 MiB) or more, above a
    batch's largest temporary of one uint64 per base, is mapped and unmapped
    on free; this stops glibc's dynamic threshold from drifting up to the
    largest array ever freed. Free heap at the top is kept up to 16 MiB, above
    a batch's whole working set of about 32 bytes per base, so each batch
    reuses the pages of the one before instead of faulting them in again.
    Does nothing where the C library has no mallopt (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows loads no library named None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 * BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one command and return its exit code. A SIGTERM or SIGHUP raises
    SystemExit(128 + signum) while it runs, so the run unwinds and cleans up
    temp files, partial outputs and workers; a signal the caller ignores (a
    run under nohup) stays ignored. The caller's handlers are restored
    before main returns. Call it from the main thread. The first call pins
    the process's malloc thresholds (_pin_malloc_thresholds)."""
    _pin_malloc_thresholds()
    parser = build_parser()
    previous = {
        sig: signal.signal(sig, _stop) for sig in STOP_SIGNALS if signal.getsignal(sig) is not signal.SIG_IGN
    }
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"src: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version, or a stop signal
        return exc.code or EXIT_OK
    except Exception as exc:
        print(f"src: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
