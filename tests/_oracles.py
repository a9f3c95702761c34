"""Naive, string-based reference implementations used as test oracles.

Deliberately independent of the package internals: plain dicts, plain string
k-mers, no bit packing.
"""

_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


def file_lines(data: bytes) -> list[bytes]:
    """The lines of a file's bytes, split at each newline, trailing carriage
    returns dropped; text after the last newline is a line too."""
    if not data.endswith(b"\n"):
        data += b"\n"
    return [line.rstrip(b"\r") for line in data.split(b"\n")[:-1]]


def fasta_records(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """(id, sequence, header) of each FASTA record, by a loop over its lines:
    a '>' line starts a record, empty lines are dropped and every other line
    is appended to the current record."""
    records = []
    header = None
    seq_parts: list[bytes] = []
    for line in file_lines(data):
        if line.startswith(b">"):
            if header is not None:
                records.append((len(records), b"".join(seq_parts), header))
            header = line[1:]
            seq_parts = []
        elif line:
            seq_parts.append(line)
    if header is not None:
        records.append((len(records), b"".join(seq_parts), header))
    return records


def fastq_records(data: bytes, path: str) -> list[tuple[int, bytes, bytes]]:
    """(id, sequence, header) of each FASTQ record, by a loop over its lines:
    blank lines before a header are skipped, and the quality, which may
    start with '@' or '+', takes lines until it is as long as the sequence.
    A broken rule raises ValueError naming path and the 1-based number of
    the last line read."""
    lines = file_lines(data)
    records = []
    i = 0

    def readline() -> bytes | None:  # None at the end of the file
        nonlocal i
        if i == len(lines):
            return None
        i += 1
        return lines[i - 1]

    while (header := readline()) is not None:
        if not header:
            continue
        if not header.startswith(b"@"):
            raise ValueError(f"{path}:{i}: expected '@' record header")
        seq = readline() or b""
        plus = readline()
        if plus is None or not plus.startswith(b"+"):
            raise ValueError(f"{path}:{i}: expected '+' separator line")
        qual = 0
        while qual < len(seq):
            qline = readline()
            if qline is None:
                raise ValueError(f"{path}:{i}: truncated quality for read {len(records)}")
            qual += len(qline)
        if qual != len(seq):
            raise ValueError(f"{path}:{i}: quality/sequence length mismatch for read {len(records)}")
        records.append((len(records), seq, header[1:]))
    return records


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


_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The murmur3 64-bit finalizer of x."""
    x ^= x >> 33
    x = x * 0xFF51AFD7ED558CCD & _M64
    x ^= x >> 33
    x = x * 0xC4CEB9FE1A85EC53 & _M64
    return x ^ x >> 33


def level_walk(levels, fallback: dict[int, int], key: int) -> int:
    """Index of key in a cascaded-level MPHF, -1 where rejected, one level at
    a time. levels holds each level's (size, seed, occupied words, collided
    words) as Python ints. An occupied slot gives the keys settled by earlier
    levels plus the occupied bits before it; a collided slot sends the key to
    the next level; an empty one rejects it. Keys past the last level are
    looked up in fallback."""
    settled = 0
    for size, seed, occupied, collided in levels:
        word, bit = divmod(mix64(key ^ seed) % size, 64)
        if occupied[word] >> bit & 1:
            before = sum(w.bit_count() for w in occupied[:word])
            return settled + before + (occupied[word] & ((1 << bit) - 1)).bit_count()
        if not collided[word] >> bit & 1:
            return -1
        settled += sum(w.bit_count() for w in occupied)
    return fallback.get(key, -1)


def xorshift_fingerprint(code: int, f: int) -> int:
    """Low f bits of the xorshift64 (13, 7, 17) step of code."""
    code ^= code << 13 & _M64
    code ^= code >> 7
    code ^= code << 17 & _M64
    return code & ((1 << f) - 1)


def dictionary_slots(levels, fallback, fingerprint_words, f: int, exact: bool, keys) -> list[int]:
    """Slot of each key in a quasi-dictionary, -1 where rejected: the level
    walk, then the f-bit field at the slot (field i at bits i*f of the words
    read as one little-endian number) must equal the key's fingerprint, which
    in exact mode is the key itself."""
    packed = sum(w << (64 * i) for i, w in enumerate(fingerprint_words))
    slots = []
    for key in keys:
        slot = level_walk(levels, fallback, key)
        if slot >= 0:
            want = key if exact else xorshift_fingerprint(key, f)
            if packed >> (slot * f) & ((1 << f) - 1) != want:
                slot = -1
        slots.append(slot)
    return slots
