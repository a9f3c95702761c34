"""Per-read abundance estimation against an indexed bank (the count tool).

The bank's solid k-mers are indexed in a quasi-dictionary and an 8-bit
saturating count table keyed by dictionary slot. A query read collects the
counts of all its indexed k-mers (overlaps included) and reports their
mean, median, min and max.
"""

from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitpack import KEY_CHUNK
from .kmers import encode_reads
from .quasidict import QuasiDictionary
from .seqio import ReadBatch, ordered_map, output_file, read_batches

COUNT_SATURATION = 255


@dataclass
class AbundanceRecord:
    """The abundance statistics of a batch of reads, one entry per read."""

    read_id: np.ndarray  # int64
    n_kmers_considered: np.ndarray  # int64
    mean: np.ndarray  # float64
    median: np.ndarray  # int64, the upper median; 0 without hits
    min: np.ndarray  # int64
    max: np.ndarray  # int64
    no_hit: np.ndarray  # bool

    def format(self) -> str:
        """The batch's output rows, each ending in a newline."""
        rows = zip(
            self.read_id.tolist(), self.n_kmers_considered.tolist(), self.mean.tolist(),
            self.median.tolist(), self.min.tolist(), self.max.tolist(),
            np.where(self.no_hit, "\t*\n", "\n").tolist(),
        )
        return "".join(map("%d\t%d\t%.2f\t%d\t%d\t%d%s".__mod__, rows))


def build_count_table(qd: QuasiDictionary, solid_codes: np.ndarray, solid_counts: np.ndarray) -> np.ndarray:
    counts = np.zeros(qd.n_keys, dtype=np.uint8)
    for lo in range(0, len(solid_codes), KEY_CHUNK):
        idx = qd.query_batch(solid_codes[lo : lo + KEY_CHUNK])
        counts[idx] = np.minimum(solid_counts[lo : lo + KEY_CHUNK], COUNT_SATURATION)
    return counts


def estimate_batch(qd: QuasiDictionary, counts: np.ndarray, batch: ReadBatch) -> AbundanceRecord:
    """The abundance statistics of each read of batch, in batch order.

    Each read's hit counts sit in one run of a single sorted array of
    read << 8 | count keys, so min, upper median and max are indexed at the
    run's start, start + n // 2 and end. Sums are exact (bincount), so
    sum / n is the float64 mean a per-read hits.mean() gives.
    """
    canon, _, ptr = encode_reads(batch.seq, batch.offsets, qd.k)
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
    read_id = np.arange(batch.first_id, batch.first_id + n_reads, dtype=np.int64)
    return AbundanceRecord(read_id, n, sums / np.maximum(n, 1), *stats, ~has)


def run_src_counter(
    qd: QuasiDictionary,
    counts: np.ndarray,
    query_path: str | Path,
    out_path: str | Path,
    threads: int = 1,
) -> None:
    """Stream query reads and write one abundance row per read, in order.
    The output file is deleted if the run fails."""
    with output_file(out_path) as out:
        out.write(
            f"# src count k={qd.k} t={qd.t} f={qd.f} gamma={qd.mphf.gamma} "
            f"seed={qd.mphf.master_seed} N={qd.n_keys}\n"
        )
        out.write(f"# counts saturate at {COUNT_SATURATION}\n")
        out.write("# read_id\tn_kmers\tmean\tmedian\tmin\tmax\t(*: no indexed k-mer)\n")
        out.flush()  # before ordered_map forks its workers
        work = lambda batch: estimate_batch(qd, counts, batch).format()
        with closing(ordered_map(work, read_batches(query_path), threads)) as texts:
            for text in texts:
                out.write(text)
