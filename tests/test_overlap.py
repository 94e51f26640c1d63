"""Unit tests for repro.overlap (pairs, seeds, graph)."""

import numpy as np
import pytest

import networkx as nx

from repro.align.results import AlignmentResult
from repro.kmers.hashtable import RetainedKmers
from repro.overlap.graph import build_overlap_graph, overlap_graph_summary
from repro.overlap.pairs import (
    OverlapRecord,
    OverlapTable,
    PairBatch,
    choose_owner,
    generate_pairs,
    owner_heuristic_oddeven,
)
from repro.overlap.seeds import SeedStrategy, select_seeds_batched

from oracles import select_seeds


# ---------------------------------------------------------------------------
# Reference (loop-based) implementations, kept as oracles for the vectorised
# production code.  These are verbatim ports of the original per-k-mer /
# per-pair loops that generate_pairs and OverlapTable.from_pairs replaced in
# the flat-array rewrite.
# ---------------------------------------------------------------------------

def _reference_generate_pairs(retained: RetainedKmers) -> PairBatch:
    """Per-k-mer triu loop: the original generate_pairs implementation."""
    if retained.n_kmers == 0:
        return PairBatch.empty()
    rid_chunks, ridb_chunks, posa_chunks, posb_chunks, strand_chunks = [], [], [], [], []
    counts = retained.counts()
    for index in range(retained.n_kmers):
        c = int(counts[index])
        if c < 2:
            continue
        _, rids, positions, strands = retained.group(index)
        ii, jj = np.triu_indices(c, k=1)
        ra, rb = rids[ii], rids[jj]
        pa, pb = positions[ii], positions[jj]
        same = strands[ii] == strands[jj]
        distinct = ra != rb
        if not distinct.any():
            continue
        ra, rb, pa, pb, same = (ra[distinct], rb[distinct], pa[distinct],
                                pb[distinct], same[distinct])
        swap = ra > rb
        rid_chunks.append(np.where(swap, rb, ra))
        ridb_chunks.append(np.where(swap, ra, rb))
        posa_chunks.append(np.where(swap, pb, pa))
        posb_chunks.append(np.where(swap, pa, pb))
        strand_chunks.append(same)
    if not rid_chunks:
        return PairBatch.empty()
    return PairBatch(
        rid_a=np.concatenate(rid_chunks).astype(np.int64),
        rid_b=np.concatenate(ridb_chunks).astype(np.int64),
        pos_a=np.concatenate(posa_chunks).astype(np.int64),
        pos_b=np.concatenate(posb_chunks).astype(np.int64),
        same_strand=np.concatenate(strand_chunks).astype(np.int64),
    )


def _reference_consolidate_pairs(batch: PairBatch) -> list[OverlapRecord]:
    """Per-group loop: the original per-pair consolidation."""
    if len(batch) == 0:
        return []
    order = np.lexsort((batch.rid_b, batch.rid_a))
    ra, rb = batch.rid_a[order], batch.rid_b[order]
    pa, pb = batch.pos_a[order], batch.pos_b[order]
    same = batch.same_strand[order]
    boundary = np.ones(ra.size, dtype=bool)
    boundary[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
    starts = np.nonzero(boundary)[0]
    ends = np.append(starts[1:], ra.size)
    records = []
    for s, e in zip(starts, ends):
        seeds = np.unique(np.stack([pa[s:e], pb[s:e], same[s:e]], axis=1), axis=0)
        records.append(OverlapRecord(
            rid_a=int(ra[s]), rid_b=int(rb[s]),
            seed_pos_a=seeds[:, 0].copy(), seed_pos_b=seeds[:, 1].copy(),
            seed_same_strand=seeds[:, 2].astype(bool).copy(),
        ))
    return records


def random_retained(rng, n_kmers=60, n_reads=12, max_mult=6, max_pos=300):
    """A randomized RetainedKmers partition for the oracle tests.

    Includes multiplicity-1 groups, repeated RIDs within a group (same-read
    occurrences and duplicate seeds) and random strand combinations.
    """
    groups = {}
    for code in range(n_kmers):
        mult = int(rng.integers(1, max_mult + 1))
        occs = []
        for _ in range(mult):
            rid = int(rng.integers(0, n_reads))
            # Duplicate positions with some probability to exercise the
            # duplicate-seed dedup in consolidation.
            pos = int(rng.integers(0, 4)) if rng.random() < 0.3 else int(rng.integers(0, max_pos))
            occs.append((rid, pos, bool(rng.random() < 0.5)))
        groups[code] = occs
    return make_retained(groups)


def _sorted_rows(batch: PairBatch) -> np.ndarray:
    """Rows of the batch matrix in canonical order (for multiset equality)."""
    matrix = batch.to_matrix()
    if matrix.size == 0:
        return matrix
    order = np.lexsort(matrix.T[::-1])
    return matrix[order]


def make_retained(groups):
    """Build a RetainedKmers from {code: [(rid, pos, strand), ...]}."""
    codes, offsets, rids, positions, strands = [], [0], [], [], []
    for code in sorted(groups):
        occs = groups[code]
        codes.append(code)
        for rid, pos, strand in occs:
            rids.append(rid)
            positions.append(pos)
            strands.append(strand)
        offsets.append(len(rids))
    return RetainedKmers(
        codes=np.array(codes, dtype=np.uint64),
        offsets=np.array(offsets, dtype=np.int64),
        rids=np.array(rids, dtype=np.int64),
        positions=np.array(positions, dtype=np.int64),
        strands=np.array(strands, dtype=bool),
    )


class TestPairBatch:
    def test_matrix_roundtrip(self):
        batch = PairBatch(
            rid_a=np.array([0, 1]), rid_b=np.array([2, 3]),
            pos_a=np.array([5, 6]), pos_b=np.array([7, 8]),
            same_strand=np.array([1, 0]),
        )
        back = PairBatch.from_matrix(batch.to_matrix())
        np.testing.assert_array_equal(back.rid_a, batch.rid_a)
        np.testing.assert_array_equal(back.same_strand, batch.same_strand)

    def test_empty_and_concatenate(self):
        empty = PairBatch.empty()
        assert len(empty) == 0
        combined = PairBatch.concatenate([empty, PairBatch.from_matrix(
            np.array([[0, 1, 2, 3, 1]], dtype=np.int64))])
        assert len(combined) == 1

    def test_from_matrix_validation(self):
        with pytest.raises(ValueError):
            PairBatch.from_matrix(np.zeros((2, 3), dtype=np.int64))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PairBatch(rid_a=np.array([0]), rid_b=np.array([1, 2]),
                      pos_a=np.array([0]), pos_b=np.array([0]),
                      same_strand=np.array([1]))


class TestOwnerHeuristics:
    def test_oddeven_matches_algorithm1(self):
        # Exhaustively check the rule on occurrence-ordered inputs.
        for first in range(8):
            for second in range(8):
                if first == second:
                    continue
                expected = ((first % 2 == 0 and first > second + 1)
                            or (first % 2 == 1 and first < second + 1))
                got = owner_heuristic_oddeven(np.array([first]), np.array([second]))[0]
                assert got == expected, (first, second)

    def test_oddeven_both_branches_fire_on_occurrence_order(self):
        # The even branch needs rid_first > rid_second + 1, which only
        # happens on occurrence-ordered (pre-normalisation) pairs; on
        # normalised input (first < second always) it is unsatisfiable.
        rng = np.random.default_rng(11)
        first = rng.integers(0, 1000, size=20_000)
        second = rng.integers(0, 1000, size=20_000)
        keep = first != second
        first, second = first[keep], second[keep]
        use_first = owner_heuristic_oddeven(first, second)
        even = (first % 2) == 0
        even_branch = use_first & even & (first > second + 1)
        odd_branch = use_first & ~even & (first < second + 1)
        assert even_branch.sum() > 0, "even branch never fired"
        assert odd_branch.sum() > 0, "odd branch never fired"
        # On normalised inputs the even branch is provably dead — the
        # degenerate behaviour the occurrence-order evaluation fixes.
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        normalised = owner_heuristic_oddeven(lo, hi)
        assert not (normalised & ((lo % 2) == 0)).any()

    def test_choose_owner_unswaps_before_applying_algorithm1(self):
        # Pair occurred as (6, 3): 6 is even and 6 > 3 + 1, so Algorithm 1
        # keeps the task on the owner of read 6.  The normalised batch stores
        # it as rid_a=3, rid_b=6, swapped=True; without the swap bit the rule
        # would see (3, 6) -> odd branch -> owner of read 3.
        read_owner = np.arange(10, dtype=np.int64)
        dest_swapped = choose_owner(np.array([3]), np.array([6]), read_owner,
                                    swapped=np.array([True]))
        assert dest_swapped[0] == 6
        dest_plain = choose_owner(np.array([3]), np.array([6]), read_owner,
                                  swapped=np.array([False]))
        assert dest_plain[0] == 3

    def test_generate_pairs_swapped_recovers_occurrence_order(self):
        # k-mer 100 is seen in read 5 then read 2 (occurrence order), so the
        # normalised pair (2, 5) must carry swapped=True; k-mer 200 is seen
        # in read 1 then read 4 -> (1, 4) with swapped=False.
        retained = make_retained({
            100: [(5, 7, True), (2, 3, True)],
            200: [(1, 9, True), (4, 11, True)],
        })
        batch = generate_pairs(retained)
        by_pair = {(int(a), int(b)): bool(s) for a, b, s in
                   zip(batch.rid_a, batch.rid_b, batch.swapped)}
        assert by_pair == {(2, 5): True, (1, 4): False}

    def test_choose_owner_balances_with_swapped_pairs(self):
        # End-to-end distribution check on normalised batches with a random
        # occurrence order: both Algorithm 1 branches fire and the per-rank
        # task counts stay close to balanced (no worse than the degenerate
        # smaller-RID-parity rule's 1.2 tolerance).
        rng = np.random.default_rng(12)
        n_reads, n_ranks = 1000, 8
        read_owner = np.repeat(np.arange(n_ranks), n_reads // n_ranks)
        first = rng.integers(0, n_reads, size=20_000)
        second = rng.integers(0, n_reads, size=20_000)
        keep = first != second
        first, second = first[keep], second[keep]
        swapped = first > second
        rid_a, rid_b = np.minimum(first, second), np.maximum(first, second)
        dest = choose_owner(rid_a, rid_b, read_owner, swapped=swapped)
        counts = np.bincount(dest, minlength=n_ranks)
        assert counts.max() / counts.mean() < 1.2
        # Both branches are represented in the chosen destinations.
        even_first_keep = (first % 2 == 0) & (first > second + 1)
        odd_first_keep = (first % 2 == 1) & (first < second + 1)
        np.testing.assert_array_equal(
            dest[even_first_keep], read_owner[first[even_first_keep]])
        np.testing.assert_array_equal(
            dest[odd_first_keep], read_owner[first[odd_first_keep]])
        assert even_first_keep.sum() > 0 and odd_first_keep.sum() > 0

    def test_choose_owner_maps_through_read_owner(self):
        read_owner = np.array([0, 0, 1, 1, 2, 2])
        ra = np.array([0, 2, 5])
        rb = np.array([3, 4, 1])
        chosen = np.where(owner_heuristic_oddeven(ra, rb), ra, rb)
        dest = choose_owner(ra, rb, read_owner)
        np.testing.assert_array_equal(dest, read_owner[chosen])

    def test_choose_owner_heuristics_valid_ranks(self):
        rng = np.random.default_rng(3)
        read_owner = rng.integers(0, 4, size=100)
        ra = rng.integers(0, 100, size=500)
        rb = rng.integers(0, 100, size=500)
        dest = choose_owner(ra, rb, read_owner)
        assert dest.min() >= 0 and dest.max() < 4

    def test_choose_owner_roughly_balances(self):
        # With uniformly distributed RIDs, the odd/even rule should send a
        # near-equal share of tasks to each read's owner.
        rng = np.random.default_rng(4)
        n_reads, n_ranks = 1000, 8
        read_owner = np.repeat(np.arange(n_ranks), n_reads // n_ranks)
        ra = rng.integers(0, n_reads, size=20_000)
        rb = rng.integers(0, n_reads, size=20_000)
        keep = ra != rb
        dest = choose_owner(ra[keep], rb[keep], read_owner)
        counts = np.bincount(dest, minlength=n_ranks)
        assert counts.max() / counts.mean() < 1.2


class TestGeneratePairs:
    def test_all_pairs_per_kmer(self):
        retained = make_retained({100: [(0, 5, True), (1, 9, True), (2, 3, False)]})
        batch = generate_pairs(retained)
        pairs = set(zip(batch.rid_a.tolist(), batch.rid_b.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_pair_count_bound(self):
        # A k-mer of multiplicity m contributes at most m(m-1)/2 pairs (§8).
        occs = [(rid, rid * 10, True) for rid in range(6)]
        retained = make_retained({7: occs})
        batch = generate_pairs(retained)
        assert len(batch) == 15

    def test_same_read_occurrences_skipped(self):
        retained = make_retained({3: [(5, 0, True), (5, 40, True)]})
        assert len(generate_pairs(retained)) == 0

    def test_rid_order_normalised_with_positions(self):
        retained = make_retained({9: [(4, 11, True), (2, 7, True)]})
        batch = generate_pairs(retained)
        assert batch.rid_a[0] == 2 and batch.rid_b[0] == 4
        assert batch.pos_a[0] == 7 and batch.pos_b[0] == 11

    def test_strand_combination(self):
        retained = make_retained({9: [(0, 1, True), (1, 2, False)]})
        batch = generate_pairs(retained)
        assert batch.same_strand[0] == 0
        retained2 = make_retained({9: [(0, 1, False), (1, 2, False)]})
        assert generate_pairs(retained2).same_strand[0] == 1

    def test_empty(self):
        assert len(generate_pairs(RetainedKmers.empty())) == 0


class TestPairBatchInvariant:
    def test_rid_order_violation_rejected(self):
        with pytest.raises(ValueError):
            PairBatch(rid_a=np.array([3]), rid_b=np.array([1]),
                      pos_a=np.array([0]), pos_b=np.array([0]),
                      same_strand=np.array([1]))

    def test_equal_rids_rejected(self):
        with pytest.raises(ValueError):
            PairBatch(rid_a=np.array([2]), rid_b=np.array([2]),
                      pos_a=np.array([0]), pos_b=np.array([0]),
                      same_strand=np.array([1]))

    def test_from_matrix_validates_too(self):
        with pytest.raises(ValueError):
            PairBatch.from_matrix(np.array([[5, 1, 0, 0, 1]], dtype=np.int64))


class TestGeneratePairsOracle:
    """The vectorised generate_pairs must match the original loop exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_content_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        retained = random_retained(rng)
        vectorized = generate_pairs(retained)
        reference = _reference_generate_pairs(retained)
        assert len(vectorized) == len(reference)
        np.testing.assert_array_equal(_sorted_rows(vectorized), _sorted_rows(reference))

    def test_multiplicity_one_groups_contribute_nothing(self):
        retained = make_retained({1: [(0, 5, True)], 2: [(3, 7, False)]})
        assert len(generate_pairs(retained)) == 0
        assert len(_reference_generate_pairs(retained)) == 0

    def test_duplicate_seed_same_pair(self):
        # The same k-mer twice in read 0 against one occurrence in read 1:
        # two tasks for the same pair, different pos_a.
        retained = make_retained({4: [(0, 10, True), (0, 90, True), (1, 50, True)]})
        vectorized = generate_pairs(retained)
        reference = _reference_generate_pairs(retained)
        assert len(vectorized) == 2
        np.testing.assert_array_equal(_sorted_rows(vectorized), _sorted_rows(reference))

    def test_cross_strand_pairs(self):
        retained = make_retained({
            5: [(0, 1, True), (1, 2, False), (2, 3, True)],
            6: [(3, 4, False), (4, 5, False)],
        })
        vectorized = generate_pairs(retained)
        reference = _reference_generate_pairs(retained)
        np.testing.assert_array_equal(_sorted_rows(vectorized), _sorted_rows(reference))
        # (0,1) and (1,2) cross strands; (0,2) and (3,4) agree.
        rows = {(int(a), int(b)): int(s) for a, b, s in
                zip(vectorized.rid_a, vectorized.rid_b, vectorized.same_strand)}
        assert rows[(0, 1)] == 0 and rows[(1, 2)] == 0
        assert rows[(0, 2)] == 1 and rows[(3, 4)] == 1

    def test_large_group_pair_count(self):
        # All-distinct RIDs: exactly c(c-1)/2 pairs survive.
        occs = [(rid, rid, True) for rid in range(9)]
        retained = make_retained({11: occs})
        assert len(generate_pairs(retained)) == 36


class TestConsolidationOracle:
    """OverlapTable.from_pairs must match the original per-group loop."""

    @staticmethod
    def _assert_matches(table: OverlapTable, reference: list[OverlapRecord]):
        records = list(table)
        assert len(records) == len(reference)
        for got, want in zip(records, reference):
            assert (got.rid_a, got.rid_b) == (want.rid_a, want.rid_b)
            np.testing.assert_array_equal(got.seed_pos_a, want.seed_pos_a)
            np.testing.assert_array_equal(got.seed_pos_b, want.seed_pos_b)
            np.testing.assert_array_equal(got.seed_same_strand, want.seed_same_strand)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        batch = generate_pairs(random_retained(rng))
        self._assert_matches(OverlapTable.from_pairs(batch),
                             _reference_consolidate_pairs(batch))

    def test_duplicate_seeds_deduplicated(self):
        batch = PairBatch(
            rid_a=np.array([0, 0, 0]), rid_b=np.array([1, 1, 1]),
            pos_a=np.array([10, 10, 10]), pos_b=np.array([20, 20, 20]),
            same_strand=np.array([1, 1, 1]),
        )
        table = OverlapTable.from_pairs(batch)
        assert len(table) == 1 and table.n_seeds == 1
        self._assert_matches(table, _reference_consolidate_pairs(batch))

    def test_same_positions_opposite_strand_kept(self):
        # Identical positions but different orientation are distinct seeds.
        batch = PairBatch(
            rid_a=np.array([0, 0]), rid_b=np.array([1, 1]),
            pos_a=np.array([10, 10]), pos_b=np.array([20, 20]),
            same_strand=np.array([1, 0]),
        )
        table = OverlapTable.from_pairs(batch)
        assert table.n_seeds == 2
        self._assert_matches(table, _reference_consolidate_pairs(batch))


class TestOverlapTable:
    def _table(self):
        batch = PairBatch(
            rid_a=np.array([0, 0, 0, 1]),
            rid_b=np.array([1, 1, 1, 2]),
            pos_a=np.array([50, 10, 10, 7]),
            pos_b=np.array([60, 20, 20, 9]),
            same_strand=np.array([1, 1, 1, 0]),
        )
        return OverlapTable.from_pairs(batch)

    def test_layout(self):
        table = self._table()
        assert len(table) == 2
        assert table.n_seeds == 3
        np.testing.assert_array_equal(table.rid_a, [0, 1])
        np.testing.assert_array_equal(table.rid_b, [1, 2])
        np.testing.assert_array_equal(table.seed_offsets, [0, 2, 3])

    def test_seeds_sorted_within_pair(self):
        table = self._table()
        lo, hi = table.seed_offsets[0], table.seed_offsets[1]
        assert table.seed_pos_a[lo:hi].tolist() == [10, 50]

    def test_record_and_iteration(self):
        table = self._table()
        first = table.record(0)
        assert isinstance(first, OverlapRecord)
        assert first.n_seeds == 2
        assert [r.rid_b for r in table] == [1, 2]

    def test_empty(self):
        table = OverlapTable.empty()
        assert len(table) == 0 and table.n_seeds == 0
        assert list(table) == []
        assert OverlapTable.from_pairs(PairBatch.empty()).n_pairs == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OverlapTable(rid_a=np.array([0]), rid_b=np.array([1, 2]),
                         seed_offsets=np.array([0, 1]),
                         seed_pos_a=np.array([0]), seed_pos_b=np.array([0]),
                         seed_same_strand=np.array([True]))
        with pytest.raises(ValueError):
            OverlapTable(rid_a=np.array([0]), rid_b=np.array([1]),
                         seed_offsets=np.array([0]),
                         seed_pos_a=np.array([0]), seed_pos_b=np.array([0]),
                         seed_same_strand=np.array([True]))


class TestBatchedSeedSelection:
    """select_seeds_batched must agree with the scalar per-record scan."""

    def _scalar_selection(self, table, strategy):
        selected = []
        for index in range(len(table)):
            lo = int(table.seed_offsets[index])
            hi = int(table.seed_offsets[index + 1])
            chosen = select_seeds(table.seed_pos_a[lo:hi], table.seed_pos_b[lo:hi], strategy)
            selected.extend(int(lo + c) for c in chosen)
        return np.array(sorted(selected), dtype=np.int64)

    @pytest.mark.parametrize("strategy", [
        SeedStrategy.one_seed(),
        SeedStrategy.separated_by(1000),
        SeedStrategy.separated_by(17),
        SeedStrategy.separated_by(40, max_seeds=2),
        SeedStrategy.separated_by(1),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_on_random_tables(self, strategy, seed):
        rng = np.random.default_rng(200 + seed)
        table = OverlapTable.from_pairs(generate_pairs(random_retained(rng)))
        batched = select_seeds_batched(table, strategy)
        np.testing.assert_array_equal(batched, self._scalar_selection(table, strategy))

    def test_one_seed_picks_first_of_each_pair(self):
        rng = np.random.default_rng(3)
        table = OverlapTable.from_pairs(generate_pairs(random_retained(rng)))
        chosen = select_seeds_batched(table, SeedStrategy.one_seed())
        np.testing.assert_array_equal(chosen, table.seed_offsets[:-1])

    def test_empty_table(self):
        assert select_seeds_batched(OverlapTable.empty(), SeedStrategy.one_seed()).size == 0
        assert select_seeds_batched(OverlapTable.empty(),
                                    SeedStrategy.separated_by(100)).size == 0


class TestConsolidation:
    def test_groups_by_pair_and_dedups_seeds(self):
        batch = PairBatch(
            rid_a=np.array([0, 0, 0, 1]),
            rid_b=np.array([1, 1, 1, 2]),
            pos_a=np.array([10, 10, 50, 7]),
            pos_b=np.array([20, 20, 60, 9]),
            same_strand=np.array([1, 1, 1, 0]),
        )
        records = list(OverlapTable.from_pairs(batch))
        assert len(records) == 2
        first = records[0]
        assert (first.rid_a, first.rid_b) == (0, 1)
        assert first.n_seeds == 2  # duplicate (10, 20) removed
        assert records[1].seed_same_strand.tolist() == [False]

    def test_empty(self):
        assert list(OverlapTable.from_pairs(PairBatch.empty())) == []


class TestSeedSelection:
    """The scalar oracle ``select_seeds`` that TestBatchedSeedSelection
    checks ``select_seeds_batched`` against."""

    def test_one_seed(self):
        pos_a = np.array([500, 100, 900])
        pos_b = np.array([5, 1, 9])
        chosen = select_seeds(pos_a, pos_b, SeedStrategy.one_seed())
        assert chosen.tolist() == [1]  # smallest position on read A

    def test_min_separation(self):
        pos_a = np.array([0, 10, 1200, 1190, 2500])
        pos_b = np.zeros(5, dtype=np.int64)
        chosen = select_seeds(pos_a, pos_b, SeedStrategy.separated_by(1000))
        assert pos_a[chosen].tolist() == [0, 1190, 2500]

    def test_min_separation_d_equals_k(self):
        pos_a = np.arange(0, 100, 5)
        pos_b = np.zeros_like(pos_a)
        chosen = select_seeds(pos_a, pos_b, SeedStrategy.separated_by(17))
        diffs = np.diff(np.sort(pos_a[chosen]))
        assert (diffs >= 17).all()

    def test_max_seeds_cap(self):
        pos_a = np.arange(0, 10_000, 1000)
        pos_b = np.zeros_like(pos_a)
        strategy = SeedStrategy.separated_by(100, max_seeds=3)
        assert select_seeds(pos_a, pos_b, strategy).size == 3

    def test_empty(self):
        assert select_seeds(np.array([]), np.array([]), SeedStrategy.one_seed()).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedStrategy(mode="bogus")
        with pytest.raises(ValueError):
            SeedStrategy(mode="min_separation", min_separation=0)
        with pytest.raises(ValueError):
            select_seeds(np.array([1]), np.array([1, 2]), SeedStrategy.one_seed())


class TestOverlapGraph:
    def _records(self):
        return [
            OverlapRecord(0, 1, np.array([5]), np.array([9]), np.array([True])),
            OverlapRecord(1, 2, np.array([7]), np.array([3]), np.array([True])),
            OverlapRecord(3, 4, np.array([1]), np.array([2]), np.array([False])),
        ]

    def test_basic_graph(self):
        graph = build_overlap_graph(self._records())
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 3
        assert graph[0][1]["n_seeds"] == 1

    def test_graph_with_alignment_filter(self):
        alignments = {
            (0, 1): AlignmentResult(200, 0, 200, 0, 200, 0, "xdrop"),
            (1, 2): AlignmentResult(20, 0, 20, 0, 20, 0, "xdrop"),
        }
        graph = build_overlap_graph(self._records(), alignments=alignments, min_score=50)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 2)   # below min_score
        assert not graph.has_edge(3, 4)   # no alignment available

    def test_summary(self):
        graph = build_overlap_graph(self._records())
        summary = overlap_graph_summary(graph)
        assert summary["n_components"] == 2
        assert summary["largest_component_fraction"] == pytest.approx(3 / 5)
        assert overlap_graph_summary(nx.Graph())["n_nodes"] == 0.0
