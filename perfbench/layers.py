"""Per-layer metrics from the tracer's spans.

A span's self time is its duration minus that of its child spans (children
run on the same thread, nested, so their durations do not overlap). Times
marked "self" exclude the hooked layers they call; the others are inclusive,
counting a recursive call (PackedArray.get_many on large inputs) once.
Layers a workload bypasses report 0.
"""

from collections import defaultdict
from typing import NamedTuple

NS = 1e-9


class Span(NamedTuple):
    name: str
    dur_ns: int
    self_ns: int
    notes: dict
    role: str  # "setup" or "timed": which traced command it belongs to
    parent_name: str | None
    end_ns: int


class Spans:
    def __init__(self, commands: list[dict]):
        self.spans: list[Span] = []
        for cmd in commands:
            raw = cmd["spans"]  # [id, name, start_ns, end_ns, parent id, thread, notes]
            name_of = {s[0]: s[1] for s in raw}
            child_ns = defaultdict(int)
            for _, _, start, end, parent, _, _ in raw:
                if parent is not None:
                    child_ns[parent] += end - start
            for sid, name, start, end, parent, _, notes in raw:
                self.spans.append(Span(
                    name, end - start, end - start - child_ns[sid], notes or {}, cmd["role"],
                    name_of.get(parent), end,
                ))

    def of(self, name: str, role: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and role in (None, s.role)]

    def inclusive_s(self, name: str) -> float:
        return NS * sum(s.dur_ns for s in self.of(name) if s.parent_name != name)

    def self_s(self, name: str) -> float:
        return NS * sum(s.self_ns for s in self.of(name))

    def note_sum(self, name: str, key: str) -> int:
        return sum(s.notes.get(key, 0) for s in self.of(name))

    def last_note(self, name: str, key: str) -> float:
        found = [s.notes[key] for s in self.of(name) if key in s.notes]
        return found[-1] if found else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busy(sp: Spans, work: str, run: str, build: str | None, threads: int) -> float:
    """Worker time in `work` over threads x the query phase of the `run` span."""
    runs = sp.of(run)
    if not runs:
        return 0.0
    phase_ns = runs[-1].dur_ns
    builds = sp.of(build) if build else []
    if builds:  # the query phase starts when the id table is built
        phase_ns = runs[-1].end_ns - builds[-1].end_ns
    return _ratio(sum(s.dur_ns for s in sp.of(work)), threads * phase_ns)


def metrics(commands: list[dict], bank: str, threads: int, overhead_ratio: float) -> dict:
    """{name: (value, unit)} for every per-layer metric."""
    sp = Spans(commands)
    accepted = sum(
        s.notes.get("accepted", 0) for s in sp.of("mphf.query") if s.parent_name == "quasidict.query"
    )
    lookups = len(sp.of("linker.ram_get")) + len(sp.of("linker.disk_get"))
    ids = sp.note_sum("linker.ram_get", "ids") + sp.note_sum("linker.disk_get", "ids")
    mphf_keys = sp.last_note("mphf.build", "keys")
    qd_keys = sp.last_note("quasidict.create", "keys") or sp.last_note("quasidict.load", "keys")
    qd_bits = sp.last_note("quasidict.create", "bits") or sp.last_note("quasidict.load", "bits")
    return {
        "seqio.parse_s": (sp.self_s("seqio.parse"), "s"),
        # passes over the bank file made by the timed command
        "seqio.bank_passes": (
            sum(1 for s in sp.of("seqio.open", "timed") if s.notes.get("path") == bank), "count",
        ),
        "kmers.encode_s": (sp.inclusive_s("kmers.encode"), "s"),
        "kmers.kmers_encoded": (sp.note_sum("kmers.encode", "kmers"), "count"),
        "kmers.count_solid_s": (sp.self_s("kmers.count_solid"), "s"),
        "kmers.distinct_kmers": (sp.last_note("kmers.count_solid", "distinct"), "count"),
        "kmers.solid_kmers": (sp.last_note("kmers.count_solid", "solid"), "count"),
        "mphf.build_s": (sp.inclusive_s("mphf.build"), "s"),
        "mphf.levels": (sp.last_note("mphf.build", "levels"), "count"),
        "mphf.fallback_keys": (sp.last_note("mphf.build", "fallback"), "count"),
        "mphf.bits_per_key": (_ratio(sp.last_note("mphf.build", "bits"), mphf_keys), "bits"),
        "mphf.query_s": (sp.self_s("mphf.query"), "s"),
        "mphf.keys_per_call": (
            _ratio(sp.note_sum("mphf.query", "keys"), len(sp.of("mphf.query"))), "count",
        ),
        "mphf.accept_ratio": (
            _ratio(sp.note_sum("mphf.query", "accepted"), sp.note_sum("mphf.query", "keys")),
            "ratio",
        ),
        "bitpack.rank1_s": (sp.inclusive_s("bitpack.rank1"), "s"),
        "bitpack.get_many_s": (sp.inclusive_s("bitpack.get_many"), "s"),
        "bitpack.set_many_s": (sp.inclusive_s("bitpack.set_many"), "s"),
        "quasidict.create_s": (sp.self_s("quasidict.create"), "s"),
        "quasidict.save_s": (sp.inclusive_s("quasidict.save"), "s"),
        "quasidict.load_s": (sp.inclusive_s("quasidict.load"), "s"),
        "quasidict.query_s": (sp.self_s("quasidict.query"), "s"),
        "quasidict.hit_ratio": (
            _ratio(sp.note_sum("quasidict.query", "hits"), sp.note_sum("quasidict.query", "keys")),
            "ratio",
        ),
        # MPHF-accepted keys that the fingerprint check then rejects
        "quasidict.fp_reject_ratio": (
            _ratio(accepted - sp.note_sum("quasidict.query", "hits"), accepted), "ratio",
        ),
        "quasidict.bits_per_key": (_ratio(qd_bits, qd_keys), "bits"),
        "counter.count_table_s": (sp.inclusive_s("counter.count_table"), "s"),
        "counter.estimate_s": (sp.self_s("counter.estimate"), "s"),
        "counter.format_s": (sp.inclusive_s("counter.format"), "s"),
        "counter.busy_ratio": (
            _busy(sp, "counter.estimate", "counter.run", None, threads), "ratio",
        ),
        "linker.id_table_build_s": (sp.inclusive_s("linker.id_table_build"), "s"),
        "linker.id_table_bytes": (sp.last_note("linker.id_table_build", "bytes"), "B"),
        "linker.similarity_s": (sp.self_s("linker.similarity"), "s"),
        "linker.id_lookups": (lookups, "count"),
        "linker.ids_per_lookup": (_ratio(ids, lookups), "count"),
        "linker.ram_get_s": (sp.inclusive_s("linker.ram_get"), "s"),
        "linker.disk_get_s": (sp.inclusive_s("linker.disk_get"), "s"),
        "linker.format_s": (sp.inclusive_s("linker.format"), "s"),
        "linker.busy_ratio": (
            _busy(sp, "linker.similarity", "linker.run", "linker.id_table_build", threads),
            "ratio",
        ),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
