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


def estimate_batch(
    qd: QuasiDictionary, counts: np.ndarray, batch: list[ReadRecord]
) -> list[AbundanceRecord]:
    """One abundance record per read of batch, in batch order.

    Each read's hit counts sit in one run of a single sorted array of
    read << 8 | count keys, so min, upper median and max are indexed at the
    run's start, start + n // 2 and end. Sums are exact (bincount), so
    sum / n is the float64 mean a per-read hits.mean() gives.
    """
    canon, _, ptr = encode_reads([r.sequence for r in batch], qd.k)
    idx = qd.query_batch(canon)
    hit = idx >= 0
    n_reads = len(batch)
    read = np.repeat(np.arange(n_reads, dtype=np.int64), np.diff(ptr))[hit]
    cv = counts[idx[hit]]
    n = np.bincount(read, minlength=n_reads)
    sums = np.bincount(read, weights=cv, minlength=n_reads)
    srt = np.sort((read << 8) | cv) & 0xFF

    end = np.cumsum(n)
    start = end - n
    has = n > 0
    stats = np.zeros((3, n_reads), dtype=np.int64)  # median, min, max; 0 without hits
    stats[:, has] = srt[np.stack([start + n // 2, start, end - 1])[:, has]]
    median, lo, hi = stats.tolist()
    mean = (sums / np.maximum(n, 1)).tolist()
    return [
        AbundanceRecord(*row)
        for row in zip([r.id for r in batch], n.tolist(), mean, median, lo, hi, (~has).tolist())
    ]


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
