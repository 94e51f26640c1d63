"""File I/O: FASTQ/FASTA parsing and writing, and block partitioning of reads.

diBELLA's input is a FASTQ file of long reads; the first thing the pipeline
does is distribute the reads "roughly uniformly over the processors using
parallel I/O" (§6).  This subpackage provides the sequential readers/writers
plus the block partitioner that reproduces that distribution (by cumulative
read size in memory, as in §9: "partitions them as uniformly as possible ...
by the read size in memory").
"""

from repro.io.fasta import read_fasta, write_fasta
from repro.io.fastq import read_fastq, write_fastq
from repro.io.partition import partition_reads

__all__ = [
    "read_fasta",
    "write_fasta",
    "read_fastq",
    "write_fastq",
    "partition_reads",
]
