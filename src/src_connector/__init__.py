"""Resource-frugal probabilistic k-mer dictionary with count and link tools."""

__version__ = "0.1.0"

from .kmers import (
    INVALID,
    MAX_K,
    SolidKmerSet,
    canonicalize,
    count_solid_kmers,
    encode_kmer,
    enumerate_kmers,
    reverse_complement,
)
from .mphf import NOT_FOUND, Mphf
from .quasidict import NOT_INDEXED, QuasiDictionary, build_bank_index, fingerprint, load_index
from .counter import AbundanceRecord, build_count_table, estimate_batch, run_src_counter
from .linker import DiskIdTable, MatchRecord, ReadIdTable, run_src_linker
from .seqio import ReadRecord, ReadStream, open_reads

__all__ = [
    "INVALID",
    "MAX_K",
    "NOT_FOUND",
    "NOT_INDEXED",
    "AbundanceRecord",
    "DiskIdTable",
    "MatchRecord",
    "Mphf",
    "QuasiDictionary",
    "ReadIdTable",
    "ReadRecord",
    "ReadStream",
    "SolidKmerSet",
    "build_bank_index",
    "build_count_table",
    "canonicalize",
    "count_solid_kmers",
    "encode_kmer",
    "enumerate_kmers",
    "estimate_batch",
    "fingerprint",
    "load_index",
    "open_reads",
    "reverse_complement",
    "run_src_counter",
    "run_src_linker",
]
