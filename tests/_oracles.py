"""Naive, string-based reference implementations used as test oracles.

Deliberately independent of the package internals: plain dicts, plain string
k-mers, no bit packing.
"""

_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


def code_of(kmer: str) -> int:
    """Base-4 number of an ACGT string, first base most significant."""
    return int(kmer.translate(str.maketrans("ACGT", "0123")), 4)


def kmer_of(code: int, k: int) -> str:
    return "".join("ACGT"[(code >> (2 * (k - 1 - p))) & 3] for p in range(k))


def revcomp_str(kmer: str) -> str:
    return "".join(_COMP[b] for b in reversed(kmer))


def canon_str(kmer: str) -> str:
    rc = revcomp_str(kmer)
    return kmer if kmer <= rc else rc


def kmer_windows(seq: str, k: int) -> list[tuple[int, str]]:
    """(position, canonical k-mer) for every ACGT-only window."""
    seq = seq.upper()
    out = []
    for i in range(len(seq) - k + 1):
        window = seq[i : i + k]
        if all(b in "ACGT" for b in window):
            out.append((i, canon_str(window)))
    return out


def count_kmers(seqs: list[str], k: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for seq in seqs:
        for _, kmer in kmer_windows(seq, k):
            counts[kmer] = counts.get(kmer, 0) + 1
    return counts


def solid_kmers(seqs: list[str], k: int, t: int) -> dict[str, int]:
    return {kmer: c for kmer, c in count_kmers(seqs, k).items() if c >= t}


def counter_records(
    bank: list[str], query: list[str], k: int, t: int
) -> list[tuple[int, int, float, int, int, int]]:
    """Abundance records (id, n, mean, upper median, min, max), 255-saturated."""
    solid = {kmer: min(c, 255) for kmer, c in solid_kmers(bank, k, t).items()}
    records = []
    for rid, seq in enumerate(query):
        hits = [solid[kmer] for _, kmer in kmer_windows(seq, k) if kmer in solid]
        if not hits:
            records.append((rid, 0, 0.0, 0, 0, 0))
        else:
            srt = sorted(hits)
            records.append(
                (
                    rid,
                    len(hits),
                    round(sum(hits) / len(hits), 2),
                    srt[len(srt) // 2],
                    srt[0],
                    srt[-1],
                )
            )
    return records


def linker_records(
    bank: list[str], query: list[str], k: int, t: int, min_shared: int
) -> dict[int, list[tuple[int, int]]]:
    """Greedy non-overlapping shared k-mer counts per (query, target) pair."""
    solid = set(solid_kmers(bank, k, t))
    occurs_in: dict[str, list[int]] = {}
    for rid, seq in enumerate(bank):
        seen = set()
        for _, kmer in kmer_windows(seq, k):
            if kmer in solid and kmer not in seen:
                seen.add(kmer)
                occurs_in.setdefault(kmer, []).append(rid)

    out: dict[int, list[tuple[int, int]]] = {}
    for qid, seq in enumerate(query):
        targets: dict[int, list[int]] = {}  # tid -> [next_free_position, count]
        for i, kmer in kmer_windows(seq, k):
            for tid in occurs_in.get(kmer, ()):
                state = targets.get(tid)
                if state is None:
                    targets[tid] = [i + k, 1]
                elif i >= state[0]:
                    state[0] = i + k
                    state[1] += 1
        out[qid] = sorted(
            (tid, c) for tid, (_, c) in targets.items() if c >= min_shared
        )
    return out


def parse_counter_output(path) -> list[tuple[int, int, float, int, int, int]]:
    records = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            records.append(
                (
                    int(parts[0]),
                    int(parts[1]),
                    float(parts[2]),
                    int(parts[3]),
                    int(parts[4]),
                    int(parts[5]),
                )
            )
    return records


def parse_linker_output(path) -> dict[int, list[tuple[int, int]]]:
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            qid_part, _, rest = line.rstrip("\n").partition(":")
            rest = rest.strip()
            if rest == "*" or not rest:
                out[int(qid_part)] = []
            else:
                out[int(qid_part)] = [
                    (int(a), int(b))
                    for a, b in (pair.split("-") for pair in rest.split(" "))
                ]
    return out
