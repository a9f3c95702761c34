"""Per-read abundance estimation against an indexed bank (the count tool).

The bank's solid k-mers are indexed in a quasi-dictionary and an 8-bit
saturating count table keyed by dictionary slot. A query read collects the
counts of all its indexed k-mers (overlaps included) and reports their
mean, median, min and max.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitpack import KEY_CHUNK
from .kmers import encode_reads
from .quasidict import QuasiDictionary
from .seqio import ReadRecord, ordered_map, read_batches

COUNT_SATURATION = 255
DEFAULT_BATCH_READS = 4096  # fixed so output is identical for any thread count


@dataclass
class AbundanceRecord:
    read_id: int
    n_kmers_considered: int
    mean: float
    median: int
    min: int
    max: int
    no_hit: bool

    def format(self) -> str:
        line = (
            f"{self.read_id}\t{self.n_kmers_considered}\t{self.mean:.2f}"
            f"\t{self.median}\t{self.min}\t{self.max}"
        )
        return line + "\t*" if self.no_hit else line


def build_count_table(qd: QuasiDictionary, solid_codes: np.ndarray, solid_counts: np.ndarray) -> np.ndarray:
    counts = np.zeros(qd.n_keys, dtype=np.uint8)
    for lo in range(0, len(solid_codes), KEY_CHUNK):
        idx = qd.query_batch(solid_codes[lo : lo + KEY_CHUNK])
        counts[idx] = np.minimum(solid_counts[lo : lo + KEY_CHUNK], COUNT_SATURATION)
    return counts


def _records_from_batch(
    read_ids: list[int],
    hit_counts_per_read: list[np.ndarray],
) -> list[AbundanceRecord]:
    records = []
    for rid, hits in zip(read_ids, hit_counts_per_read):
        n = len(hits)
        if n == 0:
            records.append(AbundanceRecord(rid, 0, 0.0, 0, 0, 0, True))
        else:
            srt = np.sort(hits)
            records.append(
                AbundanceRecord(
                    rid,
                    n,
                    float(hits.mean()),
                    int(srt[n // 2]),  # upper median on even length
                    int(srt[0]),
                    int(srt[-1]),
                    False,
                )
            )
    return records


def estimate_batch(
    qd: QuasiDictionary, counts: np.ndarray, batch: list[ReadRecord]
) -> list[AbundanceRecord]:
    canon, _, ptr = encode_reads([r.sequence for r in batch], qd.k)
    idx = qd.query_batch(canon)
    hit = idx >= 0
    cv = np.zeros(len(idx), dtype=np.uint8)
    cv[hit] = counts[idx[hit]]
    per_read = [
        cv[ptr[r] : ptr[r + 1]][hit[ptr[r] : ptr[r + 1]]] for r in range(len(batch))
    ]
    return _records_from_batch([r.id for r in batch], per_read)


def run_src_counter(
    qd: QuasiDictionary,
    counts: np.ndarray,
    query_path: str | Path,
    out_path: str | Path,
    threads: int = 1,
) -> None:
    """Stream query reads and write one abundance record per read, in order."""
    with open(out_path, "w") as out:
        out.write(
            f"# src count k={qd.k} t={qd.t} f={qd.f} gamma={qd.mphf.gamma} "
            f"seed={qd.mphf.master_seed} N={qd.n_keys}\n"
        )
        out.write(f"# counts saturate at {COUNT_SATURATION}\n")
        out.write("# read_id\tn_kmers\tmean\tmedian\tmin\tmax\t(*: no indexed k-mer)\n")
        work = lambda batch: estimate_batch(qd, counts, batch)
        for records in ordered_map(work, read_batches(query_path, DEFAULT_BATCH_READS), threads):
            out.writelines(rec.format() + "\n" for rec in records)
