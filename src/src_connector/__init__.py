"""Resource-frugal probabilistic k-mer dictionary with count and link tools."""

__version__ = "0.1.0"

import os
import sys

if "numpy" not in sys.modules:
    # No code here calls BLAS, so OpenBLAS need not start its thread pool when
    # numpy loads; a value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .kmers import MAX_K, SolidKmerSet, count_solid_kmers, encode_reads
from .mphf import NOT_FOUND, Mphf
from .quasidict import NOT_INDEXED, QuasiDictionary, build_bank_index, load_index
from .counter import AbundanceRecord, build_count_table, estimate_batch, run_src_counter
from .linker import DiskIdTable, MatchRecord, ReadIdTable, link_batch, run_src_linker
from .seqio import ReadBatch, ReadStream

__all__ = [
    "MAX_K",
    "NOT_FOUND",
    "NOT_INDEXED",
    "AbundanceRecord",
    "DiskIdTable",
    "MatchRecord",
    "Mphf",
    "QuasiDictionary",
    "ReadBatch",
    "ReadIdTable",
    "ReadStream",
    "SolidKmerSet",
    "build_bank_index",
    "build_count_table",
    "count_solid_kmers",
    "encode_reads",
    "estimate_batch",
    "link_batch",
    "load_index",
    "run_src_counter",
    "run_src_linker",
]
