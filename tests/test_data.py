"""Unit tests for repro.data (genome generation, read simulation, presets)."""

import pytest

from repro.data.datasets import (
    ecoli100x_like,
    ecoli30x_like,
    generate_dataset,
    tiny_dataset,
    true_overlaps,
)
from repro.data.genome import GenomeSpec, generate_genome
from repro.data.reads import ReadSimSpec, ReadSimulator
from repro.seq.alphabet import is_valid_dna
from repro.seq.records import Read, ReadSet


class TestGenome:
    def test_length_exact(self):
        genome = generate_genome(GenomeSpec(length=5000, seed=1))
        assert len(genome) == 5000
        assert is_valid_dna(genome)

    def test_deterministic(self):
        spec = GenomeSpec(length=2000, seed=7)
        assert generate_genome(spec) == generate_genome(spec)

    def test_different_seeds_differ(self):
        a = generate_genome(GenomeSpec(length=2000, seed=1))
        b = generate_genome(GenomeSpec(length=2000, seed=2))
        assert a != b

    def test_gc_content(self):
        genome = generate_genome(GenomeSpec(length=50_000, gc_content=0.7,
                                            repeat_fraction=0.0, seed=3))
        gc = (genome.count("G") + genome.count("C")) / len(genome)
        assert 0.65 < gc < 0.75

    def test_repeats_duplicate_kmers(self):
        # With heavy repeat content some k-mers must occur many times.
        from repro.kmers.counter import KmerCounter
        from repro.seq.kmer import KmerSpec
        genome = generate_genome(GenomeSpec(length=20_000, repeat_fraction=0.3,
                                            repeat_length=500, seed=4))
        counter = KmerCounter(KmerSpec(k=17))
        counter.add_read(genome)
        _, counts = counter.counts()
        assert counts.max() >= 3

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GenomeSpec(length=0)
        with pytest.raises(ValueError):
            GenomeSpec(length=100, repeat_fraction=1.5)
        with pytest.raises(ValueError):
            GenomeSpec(length=100, gc_content=0.0)


class TestReadSimulator:
    def test_coverage_determines_read_count(self):
        genome = generate_genome(GenomeSpec(length=10_000, seed=1))
        sim = ReadSimulator(genome, ReadSimSpec(coverage=20, mean_read_length=1000, seed=2))
        n = sim.n_reads_for_coverage()
        assert n == 200
        reads = sim.simulate()
        assert len(reads) == n
        # Total bases should be within ~25% of G * d.
        assert abs(reads.total_bases - 200_000) / 200_000 < 0.25

    def test_reads_valid_dna_with_truth(self):
        genome = generate_genome(GenomeSpec(length=5_000, seed=1))
        sim = ReadSimulator(genome, ReadSimSpec(coverage=5, mean_read_length=800, seed=3))
        reads = sim.simulate()
        for read in reads:
            assert is_valid_dna(read.sequence)
            assert read.has_truth()
            assert read.true_end - read.true_start >= 1

    def test_zero_error_rate_reads_match_genome(self):
        genome = generate_genome(GenomeSpec(length=3_000, repeat_fraction=0.0, seed=1))
        spec = ReadSimSpec(coverage=3, mean_read_length=500, read_length_sigma=0.0,
                           error_rate=0.0, circular=False, seed=5)
        sim = ReadSimulator(genome, spec)
        for i in range(5):
            read = sim.simulate_read(i)
            fragment = genome[read.true_start:read.true_end]
            if read.true_strand == 1:
                assert read.sequence == fragment
            else:
                from repro.seq.alphabet import reverse_complement
                assert read.sequence == reverse_complement(fragment)

    def test_error_rate_changes_sequence(self):
        genome = generate_genome(GenomeSpec(length=3_000, seed=1))
        noisy = ReadSimulator(genome, ReadSimSpec(coverage=3, mean_read_length=500,
                                                  error_rate=0.2, seed=6))
        read = noisy.simulate_read(0)
        fragment = genome[read.true_start:read.true_end]
        assert read.sequence != fragment

    def test_deterministic(self):
        genome = generate_genome(GenomeSpec(length=3_000, seed=1))
        spec = ReadSimSpec(coverage=3, mean_read_length=500, seed=9)
        a = ReadSimulator(genome, spec).simulate(10)
        b = ReadSimulator(genome, spec).simulate(10)
        assert [r.sequence for r in a] == [r.sequence for r in b]

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ReadSimSpec(coverage=0)
        with pytest.raises(ValueError):
            ReadSimSpec(error_rate=1.5)
        with pytest.raises(ValueError):
            ReadSimSpec(sub_fraction=0.5, ins_fraction=0.5, del_fraction=0.5)
        with pytest.raises(ValueError):
            ReadSimulator("", ReadSimSpec())


class TestPresetsAndTruth:
    def test_presets_scale(self):
        spec = ecoli30x_like(scale=0.001)
        assert spec.genome.length >= 4600 or spec.genome.length == 5000
        assert spec.reads.coverage == 30.0
        spec100 = ecoli100x_like(scale=0.001)
        assert spec100.reads.coverage == 100.0
        assert spec100.reads.error_rate > spec.reads.error_rate

    def test_tiny_dataset_generates(self):
        dataset = generate_dataset(tiny_dataset())
        assert len(dataset.reads) > 20
        assert len(dataset.genome) == 8000

    def test_true_overlaps_simple_intervals(self):
        reads = ReadSet([
            Read(name="a", sequence="A" * 100, true_start=0, true_end=1000),
            Read(name="b", sequence="A" * 100, true_start=500, true_end=1500),
            Read(name="c", sequence="A" * 100, true_start=2000, true_end=2500),
        ])
        overlaps = true_overlaps(reads, genome_length=5000, circular=False, min_overlap=100)
        assert (0, 1) in overlaps
        assert overlaps[(0, 1)] == 500
        assert (0, 2) not in overlaps
        assert (1, 2) not in overlaps

    def test_true_overlaps_respects_min_overlap(self):
        reads = ReadSet([
            Read(name="a", sequence="A" * 10, true_start=0, true_end=1000),
            Read(name="b", sequence="A" * 10, true_start=900, true_end=1900),
        ])
        assert (0, 1) in true_overlaps(reads, 5000, circular=False, min_overlap=50)
        assert (0, 1) not in true_overlaps(reads, 5000, circular=False, min_overlap=200)

    def test_true_overlaps_wraparound(self):
        # A read crossing the circular origin overlaps a read at the start.
        reads = ReadSet([
            Read(name="a", sequence="A" * 10, true_start=4500, true_end=5400),
            Read(name="b", sequence="A" * 10, true_start=0, true_end=900),
        ])
        overlaps = true_overlaps(reads, genome_length=5000, circular=True, min_overlap=100)
        assert (0, 1) in overlaps
        assert overlaps[(0, 1)] == 400
        # Without circularity the pair disappears.
        assert (0, 1) not in true_overlaps(reads, 5000, circular=False, min_overlap=100)

    def test_dataset_truth_cache(self):
        dataset = generate_dataset(tiny_dataset())
        first = dataset.true_overlaps()
        second = dataset.true_overlaps()
        assert first is second
