"""Span tracer for src_connector, installed from outside the package.

Each hook names a function or method by its defining module. Free functions
are wrapped in every src_connector module that binds them (so `encode_reads`
is wrapped in kmers, counter and linker alike); methods are wrapped on their
class; generator methods get one span per next(). A hook whose name no
longer exists raises HookError, so a refactor cannot silently report a layer
as 0 s.

Spans (id, name, start, end, parent id, thread, notes) stay in memory and are
written as JSON when the traced command ends. Run as a script:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- count --index ...
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

PACKAGE = "src_connector"


class HookError(Exception):
    pass


def _n_hits(idx) -> int:
    return int((idx >= 0).sum())


# (span name, defining module, attribute path, notes(args, result) -> dict)
HOOKS = [
    ("cli.main", "cli", "main", None),
    ("seqio.open", "seqio", "ReadStream.__init__", lambda a, r: {"path": str(a[1])}),
    ("seqio.parse", "seqio", "ReadStream.__iter__", None),
    ("kmers.encode", "kmers", "encode_reads", lambda a, r: {"kmers": len(r[0])}),
    (
        "kmers.count_solid", "kmers", "count_solid_kmers",
        lambda a, r: {"distinct": r.n_distinct_total, "solid": r.n},
    ),
    (
        "mphf.build", "mphf", "Mphf.build",
        lambda a, r: {
            "keys": r.n_keys, "levels": len(r.levels),
            "fallback": len(r.fallback), "bits": r.size_bits(),
        },
    ),
    (
        "mphf.query", "mphf", "Mphf.query_batch",
        lambda a, r: {"keys": len(r), "accepted": _n_hits(r)},
    ),
    ("bitpack.rank1", "bitpack", "rank1", None),
    ("bitpack.get_many", "bitpack", "PackedArray.get_many", None),
    ("bitpack.set_many", "bitpack", "PackedArray.set_many", None),
    (
        "quasidict.create", "quasidict", "QuasiDictionary.create",
        lambda a, r: {"keys": r.n_keys, "bits": r.size_bits()},
    ),
    (
        "quasidict.query", "quasidict", "QuasiDictionary.query_batch",
        lambda a, r: {"keys": len(r), "hits": _n_hits(r)},
    ),
    ("quasidict.save", "quasidict", "QuasiDictionary.save", None),
    (
        "quasidict.load", "quasidict", "load_index",
        lambda a, r: {"keys": r[0].n_keys, "bits": r[0].size_bits()},
    ),
    ("counter.count_table", "counter", "build_count_table", None),
    ("counter.run", "counter", "run_src_counter", None),
    ("counter.estimate", "counter", "estimate_batch", None),
    ("counter.format", "counter", "AbundanceRecord.format", None),
    ("linker.run", "linker", "run_src_linker", None),
    (
        "linker.id_table_build", "linker", "ReadIdTable.build",
        lambda a, r: {"bytes": r.offsets.nbytes + r.ids.nbytes},
    ),
    (
        "linker.id_table_build", "linker", "_build_disk_table",
        lambda a, r: {"bytes": r.offsets.nbytes + os.path.getsize(r.path)},
    ),
    ("linker.similarity", "linker", "_similarity", None),
    ("linker.ram_get", "linker", "ReadIdTable.get", lambda a, r: {"ids": len(r)}),
    ("linker.disk_get", "linker", "DiskIdTable.get", lambda a, r: {"ids": len(r)}),
    ("linker.format", "linker", "MatchRecord.format", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, thread, notes)
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()

    def _open(self) -> tuple[list[int], int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.thread = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, time.perf_counter_ns()

    def _close(self, name, stack, sid, start, end, notes=None) -> None:
        stack.pop()
        parent = stack[-1] if stack else None
        self.spans.append((sid, name, start, end, parent, self._local.thread, notes))

    def wrap_call(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, stack, sid, start, time.perf_counter_ns(), {"raised": True})
                raise
            end = time.perf_counter_ns()
            # notes are computed after the span's end, outside its interval
            self._close(name, stack, sid, start, end, note and note(args, result))
            return result

        return traced

    def wrap_iter(self, name, fn):
        """One span per next() of the generator fn returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack, sid, start = self._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, stack, sid, start, time.perf_counter_ns())
                    yield item
            finally:
                gen.close()

        return traced

    def install(self) -> None:
        """Wrap every hook; raise HookError if a hooked name is gone."""
        importlib.import_module(f"{PACKAGE}.cli")  # imports every layer
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name, mod_name, attr, note in HOOKS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(fn_name) if owner is not None else None
            if raw is None:
                raise HookError(f"hooked name {PACKAGE}.{mod_name}.{attr} no longer exists")
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = self.wrap_iter(name, fn)
            else:
                wrapped = self.wrap_call(name, fn, note)
            if owner_name:
                setattr(owner, fn_name, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for m in modules:
                if vars(m).get(fn_name) is fn:
                    setattr(m, fn_name, wrapped)

    def dump(self, path, rc: int) -> None:
        with open(path, "w") as fh:
            json.dump({"rc": rc, "threads": len(self._threads), "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <src arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    from src_connector import cli

    rc = cli.main(argv[2:])
    tracer.dump(argv[0], rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
