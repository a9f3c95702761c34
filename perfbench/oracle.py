"""Exact k-mer oracle and output checkers for the count and link tools.

The oracle works on the generated base arrays, not on the program's files or
code: windows are packed with a rolling shift loop, canonicalised against the
reverse-complemented read and counted with np.unique. The checkers accept
only what fingerprint false positives can explain: they may add k-mer hits,
never remove them.

Run as a script to self-test the checkers on planted defects.
"""

from dataclasses import dataclass

import numpy as np

from datagen import alien_reads, random_genome, shotgun_reads, shuffled_union

COUNT_SATURATION = 255
_NONE = np.uint16(COUNT_SATURATION + 1)  # sorts after every real count


def kmer_codes(bases: np.ndarray, k: int) -> np.ndarray:
    """Canonical 2-bit codes of every window, shape (n_reads, read_len - k + 1)."""
    m = bases.shape[1] - k + 1
    mask = np.uint64((1 << (2 * k)) - 1)
    two = np.uint64(2)
    cols = np.ascontiguousarray(bases.T, dtype=np.uint64)  # one row per read position

    def rolling(cols: np.ndarray) -> np.ndarray:
        out = np.empty((m, cols.shape[1]), dtype=np.uint64)
        code = np.zeros(cols.shape[1], dtype=np.uint64)
        for j in range(k - 1):
            code = (code << two) | cols[j]
        for i in range(m):
            code = ((code << two) | cols[i + k - 1]) & mask
            out[i] = code
        return out

    fwd = rolling(cols)
    # window i of the read is window m-1-i of its reverse complement
    rev = rolling(3 - cols[::-1])[::-1]
    return np.minimum(fwd, rev).T


@dataclass
class SolidSet:
    codes: np.ndarray  # ascending canonical codes with count >= t
    counts: np.ndarray  # occurrences in the bank, aligned with codes
    n_distinct: int

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(present mask, index into self.codes) for each code."""
        if len(self.codes) == 0:
            return np.zeros(codes.shape, dtype=bool), np.zeros(codes.shape, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return self.codes[pos] == codes, pos


def solid_kmers(bank_codes: np.ndarray, t: int) -> SolidSet:
    uniq, counts = np.unique(bank_codes.ravel(), return_counts=True)
    keep = counts >= t
    return SolidSet(uniq[keep], counts[keep], len(uniq))


@dataclass
class CheckResult:
    rows: int  # rows the output should have
    failed: np.ndarray  # sorted ids of rows that fail the check
    first_error: str

    @property
    def n_failed(self) -> int:
        return len(self.failed)


def _split_rows(text: str, n_rows: int) -> tuple[list[str], str]:
    rows = [line for line in text.split("\n") if line and not line.startswith("#")]
    if not text.startswith("#"):
        return rows, "missing header"
    if not text.endswith("\n"):
        return rows, "output does not end with a newline"
    if len(rows) != n_rows:
        return rows, f"{len(rows)} rows, expected {n_rows}"
    return rows, ""


def _result(n_rows: int, bad: set[int], first_error: str) -> CheckResult:
    return CheckResult(n_rows, np.array(sorted(bad), dtype=np.int64), first_error)


# ------------------------------------------------------------------ count


@dataclass
class CountOracle:
    n_kmers: np.ndarray  # indexed k-mers per read
    mean: list[str]  # formatted like the tool, "%.2f"
    median: np.ndarray  # upper median
    min: np.ndarray
    max: np.ndarray


def count_oracle(solid: SolidSet, query_codes: np.ndarray) -> CountOracle:
    present, pos = solid.lookup(query_codes)
    sat = np.minimum(solid.counts, COUNT_SATURATION).astype(np.uint16)
    vals = np.where(present, sat[pos], _NONE)
    vals.sort(axis=1)
    n = present.sum(axis=1)
    rows = np.arange(len(n))
    total = np.where(present, sat[pos], 0).sum(axis=1)
    mean = [f"{s / c:.2f}" if c else "0.00" for s, c in zip(total.tolist(), n.tolist())]
    last = np.maximum(n - 1, 0)
    has = n > 0
    return CountOracle(
        n_kmers=n,
        mean=mean,
        median=np.where(has, vals[rows, n // 2], 0),
        min=np.where(has, vals[:, 0], 0),
        max=np.where(has, vals[rows, last], 0),
    )


def check_count(text: str, oracle: CountOracle) -> tuple[CheckResult, np.ndarray]:
    """Check a count output; also returns the reported n_kmers per read (-1 if unread).

    A row may report more k-mers than the oracle (fingerprint false
    positives), never fewer; a row with exactly the oracle's k-mers must
    match it field for field.
    """
    n_rows = len(oracle.n_kmers)
    rows, error = _split_rows(text, n_rows)
    bad: set[int] = set()
    reported = np.full(n_rows, -1, dtype=np.int64)
    med, lo, hi = oracle.median.tolist(), oracle.min.tolist(), oracle.max.tolist()
    exact_n = oracle.n_kmers.tolist()
    for r, line in enumerate(rows[:n_rows]):
        f = line.split("\t")
        try:
            n = int(f[1])
            ok = len(f) in (6, 7) and int(f[0]) == r and n >= exact_n[r]
            if ok and n == exact_n[r]:
                expect = [str(r), str(n), oracle.mean[r], str(med[r]), str(lo[r]), str(hi[r])]
                ok = f == expect + (["*"] if n == 0 else [])
            if ok:
                reported[r] = n
        except (ValueError, IndexError):
            ok = False
        if not ok:
            bad.add(r)
            error = error or f"row {r}: {line!r}"
    bad.update(range(min(len(rows), n_rows), n_rows))
    return _result(n_rows, bad, error), reported


# ------------------------------------------------------------------- link


@dataclass
class LinkOracle:
    targets: list[dict[int, int]]  # per query read: target id -> shared k-mers


def link_oracle(
    solid: SolidSet, bank_codes: np.ndarray, query_codes: np.ndarray, k: int, min_shared: int
) -> LinkOracle:
    """Greedy non-overlapping shared solid k-mers per (query, bank read) pair."""
    n_q, m = query_codes.shape
    # (code, bank read) pairs of solid codes, deduplicated, sorted by code
    b_present, _ = solid.lookup(bank_codes)
    b_rid = np.broadcast_to(np.arange(len(bank_codes))[:, None], bank_codes.shape)[b_present]
    b_code = bank_codes[b_present]
    order = np.lexsort((b_rid, b_code))
    b_code, b_rid = b_code[order], b_rid[order]
    keep = np.ones(len(b_code), dtype=bool)
    keep[1:] = (b_code[1:] != b_code[:-1]) | (b_rid[1:] != b_rid[:-1])
    b_code, b_rid = b_code[keep], b_rid[keep]

    q_present, _ = solid.lookup(query_codes)
    qid = np.broadcast_to(np.arange(n_q)[:, None], query_codes.shape)[q_present]
    qpos = np.broadcast_to(np.arange(m)[None, :], query_codes.shape)[q_present]
    qcode = query_codes[q_present]
    lo = np.searchsorted(b_code, qcode, side="left")
    hi = np.searchsorted(b_code, qcode, side="right")
    width = hi - lo
    first = np.repeat(lo - np.cumsum(width) + width, width)
    tid = b_rid[first + np.arange(int(width.sum()))]
    qid = np.repeat(qid, width)
    qpos = np.repeat(qpos, width)

    order = np.lexsort((qpos, tid, qid))
    qid, tid, qpos = qid[order], tid[order], qpos[order]
    start = np.ones(len(qid), dtype=bool)
    start[1:] = (qid[1:] != qid[:-1]) | (tid[1:] != tid[:-1])
    group = np.cumsum(start) - 1
    key = group * (m + k + 1) + qpos
    # walk each group's greedy chain: next pick is the first position >= pick + k
    starts = np.flatnonzero(start)
    pick = starts.copy()
    count = np.ones(len(pick), dtype=np.int64)
    alive = np.arange(len(pick))
    while len(alive):
        nxt = np.searchsorted(key, key[pick[alive]] + k)
        ok = nxt < len(key)
        ok[ok] = group[nxt[ok]] == alive[ok]
        alive, nxt = alive[ok], nxt[ok]
        pick[alive] = nxt
        count[alive] += 1

    targets: list[dict[int, int]] = [{} for _ in range(n_q)]
    sel = count >= min_shared
    for q, t, c in zip(qid[starts][sel].tolist(), tid[starts][sel].tolist(), count[sel].tolist()):
        targets[q][t] = c
    return LinkOracle(targets)


def check_link(text: str, oracle: LinkOracle) -> CheckResult:
    """Every oracle target must be reported with at least the oracle's count.

    Fingerprint false positives only add intervals, and greedy selection over
    equal-length intervals is optimal, so extra hits can raise a count or add
    a target but never lower or drop one.
    """
    n_rows = len(oracle.targets)
    rows, error = _split_rows(text, n_rows)
    bad: set[int] = set()
    for r, line in enumerate(rows[:n_rows]):
        head, _, rest = line.partition(":")
        try:
            got = {}
            if rest != "*":
                for pair in rest.split():
                    tid, cnt = pair.split("-")
                    got[int(tid)] = int(cnt)
            ok = int(head) == r and all(
                got.get(t, 0) >= c for t, c in oracle.targets[r].items()
            )
        except ValueError:
            ok = False
        if not ok:
            bad.add(r)
            error = error or f"row {r}: {line[:200]!r}"
    bad.update(range(min(len(rows), n_rows), n_rows))
    return _result(n_rows, bad, error)


# -------------------------------------------------------------- self-test


def _format_count(o: CountOracle) -> str:
    lines = ["# src count\n"]
    for r, n in enumerate(o.n_kmers.tolist()):
        row = f"{r}\t{n}\t{o.mean[r]}\t{o.median[r]}\t{o.min[r]}\t{o.max[r]}"
        lines.append(row + ("\t*\n" if n == 0 else "\n"))
    return "".join(lines)


def _format_link(o: LinkOracle) -> str:
    lines = ["# src link\n"]
    for r, tg in enumerate(o.targets):
        pairs = " ".join(f"{t}-{c}" for t, c in sorted(tg.items()))
        lines.append(f"{r}: {pairs}\n" if tg else f"{r}:*\n")
    return "".join(lines)


def self_test(seed: int = 0) -> list[str]:
    """Plant defects in oracle-perfect outputs; return the ones not flagged."""
    rng = np.random.default_rng(seed)
    k = 31
    genome = random_genome(rng, 3000)
    bank = kmer_codes(shotgun_reads(rng, genome, 600).bases, k)
    query = shuffled_union(rng, shotgun_reads(rng, genome, 60), alien_reads(rng, 20))
    qcodes = kmer_codes(query.bases, k)
    solid = solid_kmers(bank, 2)
    missed = []

    co = count_oracle(solid, qcodes)
    clean = _format_count(co)
    if check_count(clean, co)[0].n_failed:
        missed.append("count: clean output was flagged")
    hit_row = int(np.flatnonzero(co.n_kmers > 1)[0])
    lines = clean.split("\n")
    f = lines[1 + hit_row].split("\t")
    f[1] = str(int(f[1]) - 1)
    lowered = "\n".join(lines[: 1 + hit_row] + ["\t".join(f)] + lines[2 + hit_row :])
    if hit_row not in check_count(lowered, co)[0].failed:
        missed.append("count: lowered k-mer count")
    if check_count(clean[: len(clean) // 2], co)[0].n_failed == 0:
        missed.append("count: truncated file")

    lo = link_oracle(solid, bank, qcodes, k, 2)
    clean = _format_link(lo)
    if check_link(clean, lo).n_failed:
        missed.append("link: clean output was flagged")
    r = next(i for i, tg in enumerate(lo.targets) if len(tg) > 1)
    tg = dict(lo.targets[r])
    t_drop = min(tg)
    lines = clean.split("\n")
    dropped = {t: c for t, c in tg.items() if t != t_drop}
    lines[1 + r] = f"{r}: " + " ".join(f"{t}-{c}" for t, c in sorted(dropped.items()))
    if r not in check_link("\n".join(lines), lo).failed:
        missed.append("link: dropped target")
    lowered = dict(tg)
    lowered[t_drop] -= 1
    lines[1 + r] = f"{r}: " + " ".join(f"{t}-{c}" for t, c in sorted(lowered.items()))
    if r not in check_link("\n".join(lines), lo).failed:
        missed.append("link: lowered count")
    if check_link(clean[: len(clean) // 2], lo).n_failed == 0:
        missed.append("link: truncated file")
    return missed


if __name__ == "__main__":
    import sys

    missed = self_test()
    for m in missed:
        print(f"checker self-test: NOT flagged: {m}", file=sys.stderr)
    print("checker self-test:", "FAIL" if missed else "ok (all planted defects flagged)")
    sys.exit(1 if missed else 0)
