"""Unit and property tests for the alignment kernels (repro.align)."""

import os
import shutil
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import inspect

from repro import native
from repro.align import batched_xdrop
from repro.align.batch import RESULT_DTYPE, TaskBatch, batched_xdrop_align, task_sides
from repro.align.batched_xdrop import (
    DEFAULT_XDROP_BAND,
    BatchedExtensionConfig,
    batched_extend,
)
from repro.align.read_cache import ReadCache
from repro.align.results import AlignmentResult
from repro.align.scoring import ScoringScheme
from repro.align.smith_waterman import smith_waterman
from repro.seq.alphabet import reverse_complement
from repro.seq.encoding import encode_sequence

from oracles import LookupCache, xdrop_align_tasks

dna = st.text(alphabet="ACGT", min_size=0, max_size=80)


def task_batch(*tasks: tuple) -> TaskBatch:
    """A TaskBatch with one row per ``(rid_a, rid_b, seed_pos_a, seed_pos_b)``
    task, plus ``same_strand`` as an optional fifth item (test helper)."""
    rid_a, rid_b, pos_a, pos_b, same_strand = zip(
        *(task if len(task) == 5 else (*task, True) for task in tasks))
    return TaskBatch(
        rid_a=np.array(rid_a, dtype=np.int64),
        rid_b=np.array(rid_b, dtype=np.int64),
        seed_pos_a=np.array(pos_a, dtype=np.int64),
        seed_pos_b=np.array(pos_b, dtype=np.int64),
        same_strand=np.array(same_strand, dtype=bool),
    )


def cache_of(sequences: dict[int, str]) -> ReadCache:
    """A ReadCache holding every read of *sequences* (test helper)."""
    cache = ReadCache()
    for rid, sequence in sequences.items():
        cache.put(rid, sequence)
    return cache


def xdrop_align(tasks: list[tuple], sequences: dict[int, str], **kwargs):
    """Run *tasks* through batched_xdrop_align with a fresh cache (test helper)."""
    return batched_xdrop_align(task_batch(*tasks), cache_of(sequences), **kwargs)


def mutate(seq: str, rate: float, seed: int) -> str:
    """Introduce substitutions/indels at the given rate (test helper)."""
    rng = np.random.default_rng(seed)
    out = []
    for base in seq:
        r = rng.random()
        if r < rate * 0.4:
            out.append("ACGT"[rng.integers(0, 4)])  # substitution
        elif r < rate * 0.7:
            out.append(base)
            out.append("ACGT"[rng.integers(0, 4)])  # insertion
        elif r < rate:
            pass  # deletion
        else:
            out.append(base)
    return "".join(out)


class TestScoring:
    def test_defaults(self):
        s = ScoringScheme()
        assert (s.match, s.mismatch, s.gap) == (1, -2, -2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=0)
        with pytest.raises(ValueError):
            ScoringScheme(mismatch=1)
        with pytest.raises(ValueError):
            ScoringScheme(gap=2)


class TestSmithWaterman:
    def test_identical(self):
        result = smith_waterman("ACGTACGT", "ACGTACGT")
        assert result.score == 8
        assert result.cells == 64

    def test_empty(self):
        assert smith_waterman("", "ACGT").score == 0
        assert smith_waterman("ACGT", "").score == 0

    def test_contained_substring(self):
        result = smith_waterman("TTTACGTACGTTT", "ACGTACG", traceback=True)
        assert result.score == 7
        assert result.aligned_a == "ACGTACG"
        assert result.aligned_b == "ACGTACG"

    def test_no_similarity(self):
        assert smith_waterman("AAAAAAAA", "CCCCCCCC").score == 0

    def test_single_mismatch(self):
        # Nine aligned columns with one substitution: 8 matches - 2 = 6 under
        # the default (+1, -2, -2) scheme.
        result = smith_waterman("ACGTTTGCA", "ACGATTGCA")
        assert result.score == 6

    def test_gap_handling(self):
        result = smith_waterman("ACGTACGT", "ACGACGT")  # one deletion
        assert result.score == 5  # 7 matches - one gap (-2)

    def test_traceback_properties(self):
        a, b = "ACGGTACGTTACG", "ACGTACGTTACG"
        result = smith_waterman(a, b, traceback=True)
        assert result.aligned_a is not None and result.aligned_b is not None
        # §2's formal alignment properties:
        assert len(result.aligned_a) == len(result.aligned_b)
        assert all(not (x == "-" and y == "-")
                   for x, y in zip(result.aligned_a, result.aligned_b))
        assert result.aligned_a.replace("-", "") == a[result.start_a:result.end_a]
        assert result.aligned_b.replace("-", "") == b[result.start_b:result.end_b]

    def test_traceback_score_consistent(self):
        a, b = "GATTACAGATTACA", "GATTTACAGATACA"
        result = smith_waterman(a, b, traceback=True)
        scoring = ScoringScheme()
        recomputed = 0
        for x, y in zip(result.aligned_a, result.aligned_b):
            if x == "-" or y == "-":
                recomputed += scoring.gap
            elif x == y:
                recomputed += scoring.match
            else:
                recomputed += scoring.mismatch
        assert recomputed == result.score

    @given(dna.filter(lambda s: len(s) >= 4))
    @settings(max_examples=40)
    def test_self_alignment_is_perfect(self, seq):
        assert smith_waterman(seq, seq).score == len(seq)

    @given(dna, dna)
    @settings(max_examples=40)
    def test_symmetry_of_score(self, a, b):
        assert smith_waterman(a, b).score == smith_waterman(b, a).score

    @given(dna, dna)
    @settings(max_examples=40)
    def test_score_bounded(self, a, b):
        score = smith_waterman(a, b).score
        assert 0 <= score <= min(len(a), len(b))


class TestXdropScalar:
    """Single-task extension and seed-and-extend properties of the batched
    kernel (``batched_extend`` and ``batched_xdrop_align``)."""

    @staticmethod
    def _extend(a, b, xdrop):
        (score, length_a, length_b, cells), = batched_extend(
            [a], [b], ScoringScheme(), BatchedExtensionConfig(xdrop=xdrop))
        return score, length_a, length_b, cells

    def test_extend_identical(self):
        a = encode_sequence("ACGTACGTAC")
        score, length_a, length_b, _ = self._extend(a, a.copy(), xdrop=10)
        assert (score, length_a, length_b) == (10, 10, 10)

    def test_extend_stops_on_divergence(self):
        a = encode_sequence("ACGTACGT" + "A" * 40)
        b = encode_sequence("ACGTACGT" + "C" * 40)
        score, length_a, _, cells = self._extend(a, b, xdrop=5)
        assert score == 8
        assert length_a <= 16
        # The early-exit property: under a quarter of the cells the banded
        # DP fills when it runs every row.
        assert cells < len(a) * DEFAULT_XDROP_BAND / 4

    def test_extend_empty(self):
        score, _, _, _ = self._extend(np.empty(0, dtype=np.uint8),
                                      encode_sequence("ACG"), xdrop=10)
        assert score == 0

    def test_seed_extend_recovers_overlap(self):
        genome = ("ACGGATTACCAGGTTAACCGGTTACAGGATCCGGATTAACCGGTTAACCGGATTACCGGTTAACC"
                  "GATTACAGGCTTAACGGTTACCGGATCGATCCGGTTAACACGTTGCAAGCTAGCTTACGGATCC")
        a = genome[:90]
        b = genome[50:]
        # Shared exact 17-mer at a[60:77] == genome[60:77] == b[10:27].
        result, = xdrop_align([(0, 1, 60, 10)], {0: a, 1: b}, k=17, xdrop=20)
        assert result.score >= 35  # covers most of the 40-base true overlap
        assert result.start_a <= 52
        assert result.end_a == 90

    def test_noisy_overlap_score_scales_with_length(self):
        rng = np.random.default_rng(11)
        core = "".join("ACGT"[i] for i in rng.integers(0, 4, size=400))
        a = core
        b = mutate(core, 0.15, seed=3)
        result, = xdrop_align([(0, 1, 0, 0)], {0: a, 1: b}, k=1, xdrop=30)
        assert result.score > 100


class TestBatchedXdrop:
    def test_matches_scalar_on_identical_sequences(self):
        seqs = ["ACGTACGTACGTACGT", "GATTACAGATTACAGATTACA", "CCCCGGGGTTTTAAAA"]
        a_enc = [encode_sequence(s) for s in seqs]
        results = batched_extend(a_enc, [a.copy() for a in a_enc], ScoringScheme(),
                                 BatchedExtensionConfig(xdrop=10, band=9))
        for seq, (score, length_a, _, _) in zip(seqs, results):
            assert score == len(seq)
            assert length_a == len(seq)

    def test_empty_inputs(self):
        empty = batched_extend([], [], ScoringScheme(), BatchedExtensionConfig())
        assert empty.shape == (0, 4) and empty.dtype == np.int64
        res = batched_extend([np.empty(0, dtype=np.uint8)], [encode_sequence("ACG")],
                             ScoringScheme(), BatchedExtensionConfig())
        assert res[0, 0] == 0

    def test_divergent_pairs_terminate_early(self):
        rng = np.random.default_rng(7)
        a = [encode_sequence("".join("ACGT"[i] for i in rng.integers(0, 4, size=400)))]
        b = [encode_sequence("".join("ACGT"[i] for i in rng.integers(0, 4, size=400)))]
        res = batched_extend(a, b, ScoringScheme(), BatchedExtensionConfig(xdrop=10, band=17))
        assert res[0, 3] < 400 * 17 / 2  # stopped long before the end

    def test_mixed_batch_isolated(self):
        # One perfect pair and one hopeless pair in the same batch must not
        # influence each other.
        good = encode_sequence("ACGTACGTACGTACGTACGT")
        bad_a = encode_sequence("AAAAAAAAAAAAAAAAAAAA")
        bad_b = encode_sequence("CCCCCCCCCCCCCCCCCCCC")
        res = batched_extend([good, bad_a], [good.copy(), bad_b], ScoringScheme(),
                             BatchedExtensionConfig(xdrop=10, band=9))
        assert res[0, 0] == 20
        assert res[1, 0] == 0

    def test_close_to_scalar_on_noisy_overlaps(self):
        """On noisy overlaps the banded kernel loses almost nothing against
        the full local-alignment optimum (measured: 0.992-1.000 of it)."""
        rng = np.random.default_rng(5)
        tasks = []
        for i in range(10):
            core = "".join("ACGT"[j] for j in rng.integers(0, 4, size=300))
            tasks.append((core, mutate(core, 0.12, seed=i)))
        enc_a = [encode_sequence(a) for a, _ in tasks]
        enc_b = [encode_sequence(b) for _, b in tasks]
        batched = batched_extend(enc_a, enc_b, ScoringScheme(),
                                 BatchedExtensionConfig(xdrop=25, band=33))
        for (a, b), (score, _, _, _) in zip(tasks, batched):
            assert score >= 0.95 * smith_waterman(a, b).score

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchedExtensionConfig(xdrop=0)
        with pytest.raises(ValueError):
            BatchedExtensionConfig(band=1)


class TestBatchAligner:
    """Stage 4's batch alignment entry point, ``batched_xdrop_align``."""

    def _sequences(self):
        rng = np.random.default_rng(21)
        genome = "".join("ACGT"[i] for i in rng.integers(0, 4, size=600))
        return {
            0: genome[:400],
            1: mutate(genome[200:], 0.1, seed=1),
            2: reverse_complement(genome[150:450]),
        }

    def test_align_single_task(self):
        seqs = self._sequences()
        task = (0, 1, 210, 10)
        result, = xdrop_align([task], seqs, k=17)
        assert result.score > 50
        assert result.cells > 0

    def test_align_all_uses_batched_path(self):
        seqs = self._sequences()
        tasks = [
            (0, 1, 210, 10),
            (0, 1, 300, 100),
        ]
        results = xdrop_align(tasks, seqs, k=17)
        assert len(results) == 2
        assert (results.score > 30).all()

    def test_cross_strand_task(self):
        seqs = self._sequences()
        # Read 2 is the reverse complement of genome[150:450]; the k-mer at
        # genome position 200 appears at RC coordinate 300 - (200-150) - 17.
        rc_pos = 300 - (200 - 150) - 17
        task = (0, 2, 200, rc_pos, False)
        # The same-strand task on read 2 oriented onto read 0's strand (the
        # seed sits at len - k - rc_pos there) is the same alignment.
        rc_read = reverse_complement(seqs[2])
        oriented = xdrop_align([(0, 3, 200, len(rc_read) - 17 - rc_pos)],
                               {0: seqs[0], 3: rc_read}, k=17)
        batched = xdrop_align([task, task], seqs, k=17)
        assert batched[0].score > 80
        for row in batched:
            assert (row.score, row.start_a, row.end_a, row.start_b, row.end_b, row.cells) == (
                oriented[0].score, oriented[0].start_a, oriented[0].end_a,
                oriented[0].start_b, oriented[0].end_b, oriented[0].cells)

    def test_missing_read_raises(self):
        with pytest.raises(KeyError):
            xdrop_align([(0, 99, 0, 0)], {0: "ACGT"}, k=2)

    def test_read_cache_lookups_per_task(self):
        """One lookup of read A and one of read B, in the task's
        orientation, per task, so the pipeline's read_cache_hits/misses
        counters stay pinned."""
        seqs = self._sequences()
        tasks = [
            (0, 1, 210, 10),
            (0, 1, 300, 100),
            (0, 2, 200, 300 - 50 - 17, False),
        ]
        cache = cache_of(seqs)
        batched_xdrop_align(task_batch(*tasks), cache, k=17)
        # Misses: read 0, read 1, read 2's reverse complement (its forward
        # codes are derived uncounted); hits: the other three lookups.
        assert (cache.hits, cache.misses) == (3, 3)
        batched_xdrop_align(task_batch(*tasks), cache, k=17)
        assert (cache.hits, cache.misses) == (9, 3)

    def test_batch_size_does_not_change_scores(self):
        """Regression: the same task must score identically in any batch.

        The x-drop dispatch used to send singleton batches to the unbounded
        scalar kernel and larger batches to the banded batched kernel (with a
        different default band), so a task's score depended on how many other
        tasks its rank happened to hold.
        """
        seqs = self._sequences()
        tasks = [
            (0, 1, 210, 10),
            (0, 1, 300, 100),
            (0, 2, 200, 300 - 50 - 17, False),
        ]
        solo_results = [xdrop_align([task], seqs, k=17)[0] for task in tasks]
        batch_results = xdrop_align(tasks, seqs, k=17)
        for solo, batched in zip(solo_results, batch_results):
            assert solo.score == batched.score
            assert (solo.start_a, solo.end_a, solo.start_b, solo.end_b) == (
                batched.start_a, batched.end_a, batched.start_b, batched.end_b)

    def test_band_defaults_agree_across_entry_points(self):
        """Regression: every x-drop entry point shares one default band."""
        assert BatchedExtensionConfig().band == DEFAULT_XDROP_BAND
        sig = inspect.signature(batched_xdrop_align)
        assert sig.parameters["band"].default == DEFAULT_XDROP_BAND
        from repro.core.config import PipelineConfig
        assert PipelineConfig().band == DEFAULT_XDROP_BAND
        from repro.baselines.daligner import DalignerConfig
        assert DalignerConfig().band == DEFAULT_XDROP_BAND

    def test_result_identity_helper(self):
        result = AlignmentResult(score=3, start_a=0, end_a=4, start_b=0, end_b=4,
                                 cells=16, kernel="smith_waterman",
                                 aligned_a="ACGT", aligned_b="ACTT")
        assert result.identity() == pytest.approx(0.75)
        assert result.span_a == 4
        no_tb = AlignmentResult(score=3, start_a=0, end_a=4, start_b=0, end_b=4,
                                cells=16, kernel="xdrop")
        assert no_tb.identity() is None


class TestTaskBatch:
    def _tasks(self):
        return [
            (0, 3, 10, 20),
            (1, 2, 5, 7, False),
        ]

    def test_rids_unique_sorted(self):
        batch = task_batch(*self._tasks(), *self._tasks())
        np.testing.assert_array_equal(batch.rids(), [0, 1, 2, 3])

    def test_empty(self):
        batch = TaskBatch.empty()
        assert len(batch) == 0
        assert batch.rids().size == 0
        results = batched_xdrop_align(batch, ReadCache())
        assert len(results) == 0 and results.dtype == RESULT_DTYPE

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskBatch(rid_a=np.array([0]), rid_b=np.array([1, 2]),
                      seed_pos_a=np.array([0]), seed_pos_b=np.array([0]),
                      same_strand=np.array([True]))

    def test_aligner_accepts_task_batch(self):
        """The result is one record per task with the fields stage 4 and
        the kernel tracer read: columns by name and rows with ``.cells``."""
        rng = np.random.default_rng(21)
        genome = "".join("ACGT"[i] for i in rng.integers(0, 4, size=600))
        seqs = {0: genome[:400], 1: mutate(genome[200:], 0.1, seed=1)}
        task = (0, 1, 210, 10)
        results = batched_xdrop_align(task_batch(task, task), cache_of(seqs), k=17)
        assert isinstance(results, np.recarray) and results.dtype == RESULT_DTYPE
        assert len(results) == 2 and results[0].score > 30
        assert sum(row.cells for row in results) == results.cells.sum() > 0
        # Each record is the seed plus its two extensions, on both reads.
        row = results[0]
        assert row.start_a <= 210 and row.end_a >= 210 + 17
        assert row.start_b <= 10 and row.end_b >= 10 + 17


class TestPadSequences:
    """The vectorised _pad_sequences against its per-row loop reference."""

    @staticmethod
    def _reference(seqs):
        from repro.align.batched_xdrop import _PAD
        n = len(seqs)
        max_len = max((s.size for s in seqs), default=0)
        out = np.full((n, max_len + 1), _PAD, dtype=np.uint8)
        for i, s in enumerate(seqs):
            out[i, : s.size] = s
        return out

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                             min_size=0, max_size=60),
                    min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference(self, rows):
        from repro.align.batched_xdrop import _pad_sequences
        seqs = [np.asarray(row, dtype=np.uint8) for row in rows]
        np.testing.assert_array_equal(_pad_sequences(seqs),
                                      self._reference(seqs))

    def test_edge_shapes(self):
        from repro.align.batched_xdrop import _PAD, _pad_sequences
        # No tasks -> a (0, 1) matrix; all-empty -> an all-PAD column.
        assert _pad_sequences([]).shape == (0, 1)
        all_empty = _pad_sequences([np.empty(0, dtype=np.uint8)] * 3)
        assert all_empty.shape == (3, 1) and (all_empty == _PAD).all()
        ragged = _pad_sequences([np.array([1, 2, 3], dtype=np.uint8),
                                 np.empty(0, dtype=np.uint8),
                                 np.array([0], dtype=np.uint8)])
        np.testing.assert_array_equal(
            ragged,
            np.array([[1, 2, 3, _PAD], [_PAD] * 4, [0, _PAD, _PAD, _PAD]],
                     dtype=np.uint8))


def _native_or_skip():
    kernel = native.library()
    if kernel is None:
        pytest.skip("compiled tier unavailable (no C compiler on this host)")
    return kernel


#: Every vector width the compiled tier has, as its int32 lane count: 4
#: (baseline), 8 (AVX2) and 16 (AVX-512F+BW).  The int16 kernel of each
#: runs twice as many lanes.
LANE_WIDTHS = (4, 8, 16)

#: Every kernel the compiled tier has, as (element bits, lanes).
KERNEL_WIDTHS = tuple((bits, lanes * 32 // bits) for lanes in LANE_WIDTHS for bits in (16, 32))


def _runs(kernel, bits: int, lanes: int) -> bool:
    """Whether this CPU runs the kernel on *lanes* lanes of *bits* bits."""
    return bits * lanes <= 32 * kernel.lanes


@pytest.fixture(params=LANE_WIDTHS, ids=lambda lanes: f"{lanes}lanes")
def lanes(request):
    """A vector width to force on the compiled kernel, as its int32 lane
    count; skips widths this CPU lacks."""
    kernel = _native_or_skip()
    if request.param > kernel.lanes:
        pytest.skip(f"this CPU runs at most {kernel.lanes} int32 lanes "
                    f"(16 need AVX-512F+BW, 8 need AVX2)")
    return request.param


def _related_pair(rng, len_a: int, len_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Random codes for *a* and a *len_b*-long *b* sharing a's prefix with
    ~10% substitutions, so extensions run long and x-drop exits stay rare."""
    a = rng.integers(0, 4, size=len_a, dtype=np.uint8)
    b = rng.integers(0, 4, size=len_b, dtype=np.uint8)
    shared = min(len_a, len_b)
    b[:shared] = np.where(rng.random(shared) < 0.1, b[:shared], a[:shared])
    return a, b


def _native_extend(kernel, seqs_a, seqs_b, scoring, config, bits=32, lanes=None):
    """The compiled kernel on *bits*-bit lanes, on the arena and sides
    ``batched_extend`` builds from the lists (test helper)."""
    arena, sides = batched_xdrop._list_sides(seqs_a, seqs_b)
    return batched_xdrop._extend_native(kernel, arena, sides, scoring, config, bits, lanes)


def _extend_at(kernel, lanes, seqs_a, seqs_b, scoring, config, tiers=None):
    """``extend_sides`` on the lists, the library's widest vector forced to
    *lanes* int32 lanes (test helper)."""
    arena, sides = batched_xdrop._list_sides(seqs_a, seqs_b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: kernel._replace(lanes=lanes))
        return batched_xdrop.extend_sides(arena, sides, scoring, config, tiers)


def _assert_lanes_match_numpy(kernel, lanes, seqs_a, seqs_b, scoring, config):
    """At the vector width of *lanes* int32 lanes: the int32 kernel on every
    task, the int16 kernel on every task when all fit it, and the split
    ``extend_sides`` makes all equal the NumPy kernel."""
    expected = batched_xdrop._extend_numpy(seqs_a, seqs_b, scoring, config)
    np.testing.assert_array_equal(
        _native_extend(kernel, seqs_a, seqs_b, scoring, config, 32, lanes), expected)
    _, sides = batched_xdrop._list_sides(seqs_a, seqs_b)
    if (batched_xdrop._lane_bits(sides, scoring, config) == 16).all():
        np.testing.assert_array_equal(
            _native_extend(kernel, seqs_a, seqs_b, scoring, config, 16, 2 * lanes), expected)
    np.testing.assert_array_equal(
        _extend_at(kernel, lanes, seqs_a, seqs_b, scoring, config), expected)


codes = st.lists(st.integers(min_value=0, max_value=3), max_size=150)


@st.composite
def extension_batches(draw):
    """Mixed batches: empty, unrelated and lightly edited (a, b) pairs."""
    seqs_a, seqs_b = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a = draw(codes)
        if draw(st.booleans()):
            b = list(a)
            for _ in range(draw(st.integers(min_value=0, max_value=8))):
                pos = draw(st.integers(min_value=0, max_value=len(b)))
                edit = draw(st.sampled_from(("sub", "ins", "del")))
                base = draw(st.integers(min_value=0, max_value=3))
                if edit == "ins":
                    b.insert(pos, base)
                elif pos < len(b):
                    b[pos:pos + 1] = [base] if edit == "sub" else []
        else:
            b = draw(codes)
        seqs_a.append(np.asarray(a, dtype=np.uint8))
        seqs_b.append(np.asarray(b, dtype=np.uint8))
    return seqs_a, seqs_b


scoring_schemes = st.builds(
    ScoringScheme,
    match=st.integers(min_value=1, max_value=5),
    mismatch=st.integers(min_value=-6, max_value=0),
    gap=st.integers(min_value=-6, max_value=0),
)


class TestCompiledXdrop:
    """The compiled x-drop tier against the NumPy reference kernel, bit for bit."""

    @given(batch=extension_batches(),
           band=st.integers(min_value=3, max_value=129),
           # Huge thresholds never fire: only the end-of-read exit stops a
           # task, and sentinel-valued rows then decide the x-drop test.
           xdrop=st.integers(min_value=1, max_value=60) | st.sampled_from([2**29, 2**62]),
           max_rows=st.none() | st.integers(min_value=1, max_value=200),
           scoring=scoring_schemes)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_kernel(self, batch, band, xdrop, max_rows, scoring):
        kernel = _native_or_skip()
        seqs_a, seqs_b = batch
        config = BatchedExtensionConfig(xdrop=xdrop, band=band, max_rows=max_rows)
        expected = batched_xdrop._extend_numpy(seqs_a, seqs_b, scoring, config)
        assert np.array_equal(_native_extend(kernel, seqs_a, seqs_b, scoring, config), expected)
        # The default path: int16 lanes for every task when xdrop < 2**13.
        assert np.array_equal(batched_extend(seqs_a, seqs_b, scoring, config), expected)

    def test_zero_length_task_cells_follow_the_batch(self):
        # A zero-length task is charged one row of `band` cells only when
        # another task in its batch has rows: both tiers must agree.
        kernel = _native_or_skip()
        empty = np.empty(0, dtype=np.uint8)
        read = encode_sequence("ACGTACGTAC")
        config = BatchedExtensionConfig(xdrop=10, band=9)
        for seqs_a, seqs_b in (([empty], [read]), ([empty, read], [read, read.copy()])):
            native = _native_extend(kernel, seqs_a, seqs_b, ScoringScheme(), config)
            assert np.array_equal(native, batched_xdrop._extend_numpy(seqs_a, seqs_b,
                                                                      ScoringScheme(), config))
        alone = _native_extend(kernel, [empty], [read], ScoringScheme(), config)
        mixed = _native_extend(kernel, [empty, read], [read, read.copy()],
                               ScoringScheme(), config)
        assert alone[0, 3] == 0 and mixed[0, 3] == 9

    def test_band_wider_than_both_sequences(self):
        kernel = _native_or_skip()
        seqs_a = [encode_sequence("ACGTTGCA"), encode_sequence("GATTACA")]
        seqs_b = [encode_sequence("ACGTAGCA"), encode_sequence("GATACA")]
        for band in (3, 4, 64, 129):
            config = BatchedExtensionConfig(xdrop=5, band=band)
            assert np.array_equal(
                _native_extend(kernel, seqs_a, seqs_b, ScoringScheme(), config),
                batched_xdrop._extend_numpy(seqs_a, seqs_b, ScoringScheme(), config))

    def test_int32_guard_takes_numpy_path(self, monkeypatch):
        kernel = _native_or_skip()
        # (8 + 8 + 9) * 2**26 >= 2**30: the compiled tier declines the task.
        scoring = ScoringScheme(match=2**26, mismatch=-1, gap=-1)
        seqs = [encode_sequence("ACGTACGT")]
        config = BatchedExtensionConfig(xdrop=10, band=9)
        _, sides = batched_xdrop._list_sides(seqs, seqs)
        assert batched_xdrop._lane_bits(sides, scoring, config).tolist() == [0]
        calls = []
        reference = batched_xdrop._extend_numpy

        def spy(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(batched_xdrop, "_extend_numpy", spy)
        (score, length_a, _, _), = batched_extend(seqs, seqs, scoring, config)
        assert len(calls) == 1
        assert score == 8 * 2**26 and length_a == 8
        # Just under the bound the compiled tier runs, exactly.
        small = ScoringScheme(match=2**25, mismatch=-1, gap=-1)
        assert batched_xdrop._lane_bits(sides, small, config).tolist() == [32]
        assert np.array_equal(_native_extend(kernel, seqs, seqs, small, config),
                              reference(seqs, seqs, small, config))
        # An x-drop past int64 is declined too, not wrapped by ctypes.
        huge = BatchedExtensionConfig(xdrop=2**63, band=9)
        assert batched_xdrop._lane_bits(sides, small, huge).tolist() == [0]

    def test_each_width_on_groups_it_reorders(self, lanes):
        # Over two full groups of the widest width, in an order the length
        # sort changes: results must come back in input order.
        kernel = _native_or_skip()
        rng = np.random.default_rng(7)
        pairs = [_related_pair(rng, int(rng.integers(0, 300)), int(rng.integers(0, 300)))
                 for _ in range(2 * max(LANE_WIDTHS) + 5)]
        seqs_a, seqs_b = map(list, zip(*pairs))
        shortest = np.minimum([a.size for a in seqs_a], [b.size for b in seqs_b])
        assert (np.diff(shortest) < 0).any()
        for config in (BatchedExtensionConfig(xdrop=25), BatchedExtensionConfig(xdrop=8, band=17)):
            _assert_lanes_match_numpy(kernel, lanes, seqs_a, seqs_b, ScoringScheme(), config)

    def test_each_width_on_one_and_two_tasks(self, lanes):
        kernel = _native_or_skip()
        rng = np.random.default_rng(11)
        pairs = [_related_pair(rng, 250, 180), _related_pair(rng, 40, 400)]
        config = BatchedExtensionConfig(xdrop=25)
        for batch in ([pairs[0]], [pairs[1]], pairs, pairs[::-1]):
            seqs_a, seqs_b = map(list, zip(*batch))
            _assert_lanes_match_numpy(kernel, lanes, seqs_a, seqs_b, ScoringScheme(), config)

    @pytest.mark.parametrize("max_rows", [1, 7, 150, None])
    def test_each_width_on_edge_lengths(self, lanes, max_rows):
        # Lengths 0-400 with empty sides, under row caps; thresholds that
        # never fire put sentinel-valued rows to the x-drop test, which
        # must stay exact in 64 bits (2**31 +- 1 straddle the int32 range).
        kernel = _native_or_skip()
        rng = np.random.default_rng(3)
        lengths = (0, 1, 2, 3, 16, 31, 32, 33, 64, 65, 150, 399, 400)
        pairs = [_related_pair(rng, len_a, len_b) for len_a in lengths for len_b in lengths]
        pairs += [(rng.integers(0, 4, size=len_a, dtype=np.uint8),
                   rng.integers(0, 4, size=len_b, dtype=np.uint8))
                  for len_a, len_b in rng.integers(0, 401, size=(40, 2))]
        seqs_a, seqs_b = map(list, zip(*pairs))
        for band in (33, DEFAULT_XDROP_BAND):
            for xdrop in (10, 2**29, 2**31 - 1, 2**31, 2**31 + 1, 2**62):
                config = BatchedExtensionConfig(xdrop=xdrop, band=band, max_rows=max_rows)
                _assert_lanes_match_numpy(kernel, lanes, seqs_a, seqs_b, ScoringScheme(), config)

    def test_unknown_width_is_refused(self):
        kernel = _native_or_skip()
        seqs = [encode_sequence("ACGTACGT")]
        widest = 2 * max(LANE_WIDTHS)
        for bits, width in ((32, 0), (32, 3), (32, widest), (16, 4), (16, 2 * widest),
                            (8, 16), (64, 4)):
            with pytest.raises(ValueError, match="lanes"):
                _native_extend(kernel, seqs, seqs, ScoringScheme(),
                               BatchedExtensionConfig(), bits, width)
        # int16 lanes take no x-drop of 2**13 or more.
        with pytest.raises(ValueError, match="lanes"):
            _native_extend(kernel, seqs, seqs, ScoringScheme(),
                           BatchedExtensionConfig(xdrop=2**13), 16, 8)

    def test_build_command_has_no_cpu_flags(self):
        # The library cache key cannot tell two CPUs of one machine type
        # apart, so a -march/-mavx* build would be reused where it SIGILLs;
        # the wide kernels are selected at run time instead.
        assert not [arg for arg in native._CC_COMMAND if arg.startswith("-m")]

    def test_default_entry_point_uses_compiled_tier(self, monkeypatch):
        _native_or_skip()
        monkeypatch.setattr(batched_xdrop, "_extend_numpy", None)
        seqs = [encode_sequence("ACGTACGTACGT")]
        (score, _, _, _), = batched_extend(seqs, seqs, ScoringScheme(), BatchedExtensionConfig())
        assert score == 12


#: Scoring with every weight in 1-3, the range the int16 gate tests use.
small_weights = st.builds(
    ScoringScheme,
    match=st.integers(min_value=1, max_value=3),
    mismatch=st.integers(min_value=-3, max_value=0),
    gap=st.integers(min_value=-3, max_value=0),
)


def _gate_span(scoring, len_a, len_b, band):
    """``(len_a + len_b + band) * max |weight|``, the quantity the int16 and
    int32 gates bound."""
    return (len_a + len_b + band) * max(abs(scoring.match), abs(scoring.mismatch),
                                        abs(scoring.gap))


class TestInt16Lanes:
    """The per-task split between int16 lanes, int32 lanes and NumPy."""

    @given(batch=extension_batches(),
           band=st.integers(min_value=3, max_value=129),
           # 2**13 - 1 is the largest x-drop int16 lanes take; 2**13 and
           # 2**62 move every task to int32 lanes.
           xdrop=st.integers(min_value=1, max_value=60) | st.sampled_from([2**13 - 1, 2**13, 2**62]),
           max_rows=st.none() | st.integers(min_value=1, max_value=200),
           scoring=small_weights)
    @settings(max_examples=300, deadline=None)
    def test_every_width_matches_numpy(self, batch, band, xdrop, max_rows, scoring):
        # Each (element type, lane count) this CPU runs, directly, and the
        # split extend_sides makes at each vector width.
        kernel = _native_or_skip()
        seqs_a, seqs_b = batch
        config = BatchedExtensionConfig(xdrop=xdrop, band=band, max_rows=max_rows)
        expected = batched_xdrop._extend_numpy(seqs_a, seqs_b, scoring, config)
        for bits, width in KERNEL_WIDTHS:
            if not _runs(kernel, bits, width):
                continue
            if bits == 16 and xdrop >= 2**13:
                with pytest.raises(ValueError, match="lanes"):
                    _native_extend(kernel, seqs_a, seqs_b, scoring, config, bits, width)
                continue
            assert np.array_equal(
                _native_extend(kernel, seqs_a, seqs_b, scoring, config, bits, width), expected)
        for width in LANE_WIDTHS:
            if width <= kernel.lanes:
                tiers = Counter()
                assert np.array_equal(
                    _extend_at(kernel, width, seqs_a, seqs_b, scoring, config, tiers), expected)
                tier = "int16" if xdrop < 2**13 else "int32"
                assert tiers == {tier: len(seqs_a)}

    @pytest.mark.parametrize("scoring", [ScoringScheme(1, -1, -1), ScoringScheme(1, -2, -2),
                                         ScoringScheme(3, -3, -3), ScoringScheme(2, -3, -1)],
                             ids=lambda scoring: f"{scoring.match},{scoring.mismatch},{scoring.gap}")
    def test_tasks_at_the_gate(self, lanes, scoring):
        # Unrelated all-mismatch tasks whose span sits one under the int16
        # gate and at it, in one call with short ones: the x-drop never
        # fires, so the scores fall as low as the gate allows.  Gate - 1
        # runs on int16 lanes, the gate on int32 lanes, all exact.
        kernel = _native_or_skip()
        band = 3
        weight = max(abs(scoring.match), abs(scoring.mismatch), abs(scoring.gap))
        total = (2**14 - 1) // weight - band  # len_a + len_b at gate - 1
        at_gate = -(-2**14 // weight) - band  # the least len_a + len_b at the gate
        assert _gate_span(scoring, total, 0, band) < 2**14 <= _gate_span(scoring, at_gate, 0, band)
        rng = np.random.default_rng(5)
        seqs_a, seqs_b = [], []
        for len_total in (total, at_gate, total - 1):
            len_a = len_total // 2
            seqs_a.append(np.zeros(len_a, dtype=np.uint8))
            seqs_b.append(np.ones(len_total - len_a, dtype=np.uint8))
        for _ in range(5):
            seqs_a.append(rng.integers(0, 4, size=40, dtype=np.uint8))
            seqs_b.append(rng.integers(0, 4, size=30, dtype=np.uint8))
        config = BatchedExtensionConfig(xdrop=2**13 - 1, band=band)
        _, sides = batched_xdrop._list_sides(seqs_a, seqs_b)
        assert batched_xdrop._lane_bits(sides, scoring, config).tolist() == [16, 32] + [16] * 6
        expected = batched_xdrop._extend_numpy(seqs_a, seqs_b, scoring, config)
        assert expected[0, 0] == 0 and expected[0, 3] == band * len(seqs_a[0])
        tiers = Counter()
        assert np.array_equal(
            _extend_at(kernel, lanes, seqs_a, seqs_b, scoring, config, tiers), expected)
        assert tiers == {"int16": 7, "int32": 1}

    def test_one_oversized_task_leaves_the_rest_on_int16_lanes(self, monkeypatch):
        # One task past the int16 gate runs alone on int32 lanes and one
        # past the int32 gate alone on NumPy; every other task of the call
        # still runs on int16 lanes, and the results match one NumPy call.
        kernel = _native_or_skip()
        calls = []

        def spy(bits, lanes, n_tasks, *args):
            calls.append((bits, lanes, n_tasks))
            return kernel.xdrop_extend_batch(bits, lanes, n_tasks, *args)

        monkeypatch.setattr(native, "library",
                            lambda: kernel._replace(xdrop_extend_batch=spy))
        numpy_tasks = []
        reference = batched_xdrop._extend_numpy

        def numpy_spy(seqs_a, seqs_b, *args, **kwargs):
            numpy_tasks.append(len(seqs_a))
            return reference(seqs_a, seqs_b, *args, **kwargs)

        monkeypatch.setattr(batched_xdrop, "_extend_numpy", numpy_spy)
        rng = np.random.default_rng(9)
        pairs = [_related_pair(rng, int(rng.integers(0, 300)), int(rng.integers(0, 300)))
                 for _ in range(9)]
        pairs.insert(4, _related_pair(rng, 4500, 4200))  # (8700 + 64) * 2 >= 2**14
        seqs_a, seqs_b = map(list, zip(*pairs))
        config = BatchedExtensionConfig(xdrop=25)
        tiers = Counter()
        results = batched_xdrop.extend_sides(*batched_xdrop._list_sides(seqs_a, seqs_b),
                                             ScoringScheme(), config, tiers)
        assert calls == [(16, 2 * kernel.lanes, 9), (32, kernel.lanes, 1)]
        assert tiers == {"int16": 9, "int32": 1} and numpy_tasks == []
        assert np.array_equal(results, reference(seqs_a, seqs_b, ScoringScheme(), config))
        # A weight of 2**20 fits no task on int16 lanes, and the long task
        # no longer fits int32 lanes: only it runs on NumPy.
        calls.clear()
        heavy = ScoringScheme(match=2**20, mismatch=-1, gap=-1)
        tiers = Counter()
        results = batched_xdrop.extend_sides(*batched_xdrop._list_sides(seqs_a, seqs_b),
                                             heavy, config, tiers)
        assert calls == [(32, kernel.lanes, 9)] and numpy_tasks == [1]
        assert tiers == {"int32": 9, "numpy": 1}
        assert np.array_equal(results, reference(seqs_a, seqs_b, heavy, config))

    def test_every_part_keeps_the_calls_first_row(self):
        # A task with no rows is charged one row of band cells when another
        # task of its call has rows, also when that task runs in another
        # part of the split.
        kernel = _native_or_skip()
        empty = np.empty(0, dtype=np.uint8)
        short, long_b = np.zeros(5, dtype=np.uint8), np.ones(9000, dtype=np.uint8)
        config = BatchedExtensionConfig(xdrop=10, band=9)
        for scoring in (ScoringScheme(), ScoringScheme(match=2**20, mismatch=-1, gap=-1)):
            # The empty-a task runs on int16 lanes or NumPy, alone in its
            # part; the other runs on int32 lanes.
            seqs_a, seqs_b = [empty, short], [long_b if scoring.match > 1 else short,
                                              long_b if scoring.match == 1 else short]
            _, sides = batched_xdrop._list_sides(seqs_a, seqs_b)
            assert batched_xdrop._lane_bits(sides, scoring, config).tolist() == (
                [16, 32] if scoring.match == 1 else [0, 32])
            expected = batched_xdrop._extend_numpy(seqs_a, seqs_b, scoring, config)
            assert expected[0, 3] == 9
            assert np.array_equal(_extend_at(kernel, kernel.lanes, seqs_a, seqs_b, scoring,
                                             config), expected)


@st.composite
def read_task_batches(draw):
    """``(k, reads, tasks)``: reads cut from one genome (some empty or
    shorter than k, some reverse complemented) and a mixed batch of tasks
    over them, on either strand, with seeds from 3 before a read's start to
    3 past its end so that some clamp at the read ends."""
    k = draw(st.integers(min_value=1, max_value=12))
    genome = draw(st.text(alphabet="ACGT", min_size=1, max_size=160))
    reads = {}
    for rid in range(draw(st.integers(min_value=2, max_value=6))):
        start = draw(st.integers(min_value=0, max_value=len(genome)))
        read = genome[start:draw(st.integers(min_value=start, max_value=len(genome)))]
        reads[rid] = reverse_complement(read) if draw(st.booleans()) else read
    tasks = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        rid_a = draw(st.integers(min_value=0, max_value=len(reads) - 2))
        rid_b = draw(st.integers(min_value=rid_a + 1, max_value=len(reads) - 1))
        tasks.append((rid_a, rid_b,
                      draw(st.integers(min_value=-3, max_value=len(reads[rid_a]) + 3)),
                      draw(st.integers(min_value=-3, max_value=len(reads[rid_b]) + 3)),
                      draw(st.booleans())))
    return k, reads, task_batch(*tasks)


def _arena_sides(k, reads, tasks):
    """``(arena, forward, backward, rids, offsets)`` of *tasks* (test helper)."""
    rids, arena, offsets = cache_of(reads).code_arena(
        np.concatenate([tasks.rid_a, tasks.rid_b]), np.ones(2 * len(tasks), dtype=bool))
    forward, backward, _, _ = task_sides(tasks, rids, offsets, k)
    return arena, forward, backward, rids, offsets


class TestCodeArena:
    """Stage 4's code arena and extension descriptors."""

    @given(batch=read_task_batches(), band=st.integers(min_value=3, max_value=40),
           xdrop=st.integers(min_value=1, max_value=30), scoring=scoring_schemes)
    @settings(max_examples=150, deadline=None)
    def test_descriptor_kernel_matches_numpy_at_every_width(self, batch, band, xdrop,
                                                             scoring):
        # Forward sides, backward sides and the two mixed in one batch, at
        # every width this CPU runs, against the NumPy kernel on the lists
        # the fallback builds from the same descriptors.
        kernel = _native_or_skip()
        arena, forward, backward, _, _ = _arena_sides(*batch)
        config = BatchedExtensionConfig(xdrop=xdrop, band=band)
        for sides in (forward, backward, np.concatenate([forward, backward])):
            reference = batched_xdrop._extend_numpy(
                *batched_xdrop._side_codes(arena, sides), scoring, config)
            assert (batched_xdrop._lane_bits(sides, scoring, config) == 16).all()
            for bits, width in KERNEL_WIDTHS:
                if _runs(kernel, bits, width):
                    assert np.array_equal(batched_xdrop._extend_native(
                        kernel, arena, sides, scoring, config, bits, width), reference)

    @given(batch=read_task_batches())
    @settings(max_examples=150, deadline=None)
    def test_every_span_lies_in_its_read(self, batch):
        k, reads, tasks = batch
        arena, forward, backward, rids, offsets = _arena_sides(k, reads, tasks)
        assert offsets[-1] == arena.size
        for sides in (forward, backward):
            for side, rid in ((sides[:, 0], tasks.rid_a), (sides[:, 1], tasks.rid_b)):
                start, length, step, complement = side.T
                index = np.searchsorted(rids, rid)
                first, last = start, start + step * (length - 1)
                used = length > 0
                assert (start[~used] == 0).all()
                assert (np.minimum(first, last)[used] >= offsets[index][used]).all()
                assert (np.maximum(first, last)[used] < offsets[index + 1][used]).all()
                assert np.isin(step, (-1, 1)).all() and np.isin(complement, (0, 3)).all()
                assert (0 <= start).all() and (start <= arena.size).all()

    def test_sides_outside_the_arena_are_refused(self):
        arena = encode_sequence("ACGTACGT")
        good = [0, 4, 1, 0]
        for bad in ([5, 4, 1, 0], [2, 4, -1, 0], [0, 4, 2, 0], [0, 4, 1, 1], [0, -1, 1, 0]):
            for sides in ([[good, bad]], [[bad, good]]):
                with pytest.raises(ValueError, match="arena"):
                    batched_xdrop.extend_sides(arena, np.array(sides), ScoringScheme(),
                                               BatchedExtensionConfig())
        # A side of length 0 reads nothing, wherever it starts.
        (score, _, _, _), = batched_xdrop.extend_sides(
            arena, np.array([[good, [99, 0, 1, 0]]]), ScoringScheme(), BatchedExtensionConfig())
        assert score == 0

    @pytest.mark.parametrize("tier", ["compiled", "numpy"])
    @given(batch=read_task_batches(), served=st.sets(st.integers(min_value=0, max_value=5)),
           band=st.integers(min_value=3, max_value=40),
           xdrop=st.integers(min_value=1, max_value=30), scoring=scoring_schemes)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_task_slicing_oracle(self, tier, batch, served, band, xdrop, scoring):
        # Results and hit/miss counts equal the per-task loop over memoised
        # forward and reverse-complement arrays, over two calls; reads
        # served to a peer beforehand already hold their forward codes.
        if tier == "compiled":
            _native_or_skip()
        k, reads, tasks = batch
        cache, oracle = cache_of(reads), LookupCache(reads)
        for rid in served & set(reads):
            cache.encoded_peek(rid)
            oracle._codes(rid)
        with pytest.MonkeyPatch.context() as patch:
            if tier == "numpy":
                patch.setattr(native, "library", lambda: None)
            for _ in range(2):
                results = batched_xdrop_align(tasks, cache, k=k, scoring=scoring,
                                              xdrop=xdrop, band=band)
                expected = xdrop_align_tasks(tasks, oracle, k, scoring, xdrop, band)
                assert np.array_equal(
                    np.stack([results[name] for name in RESULT_DTYPE.names], axis=1), expected)
                assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)


class TestKernelBuildCache:
    """Building, caching and loading the compiled tier; every failure falls back."""

    @pytest.fixture(autouse=True)
    def _needs_compiler(self):
        if shutil.which(native._CC_COMMAND[0]) is None:
            pytest.skip("no C compiler on this host")

    @staticmethod
    def _assert_one_library(cache_dir):
        names = sorted(p.name for p in cache_dir.iterdir())
        assert names == [native._library_path(cache_dir).name]

    def test_cache_dir_follows_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native._cache_dir() == tmp_path / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert native._cache_dir() == tmp_path / "home" / ".cache" / "repro"

    def test_builds_private_dir_and_loads(self, tmp_path):
        cache_dir = tmp_path / "xdg" / "repro"
        assert native.load_library(cache_dir) is not None
        assert cache_dir.stat().st_mode & 0o777 == 0o700
        self._assert_one_library(cache_dir)

    def test_concurrent_threads_leave_one_library(self, tmp_path):
        cache_dir = tmp_path / "repro"
        barrier = threading.Barrier(2)
        loaded = []

        def first_use():
            barrier.wait(timeout=30)
            loaded.append(native.load_library(cache_dir))

        threads = [threading.Thread(target=first_use) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(loaded) == 2 and all(kernel is not None for kernel in loaded)
        self._assert_one_library(cache_dir)

    def test_concurrent_processes_leave_one_library(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        code = ("import sys\n"
                "from repro.native import library\n"
                "sys.exit(0 if library() is not None else 3)\n")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        self._assert_one_library(tmp_path / "repro")

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_cache_entry_is_rebuilt(self, tmp_path, damage):
        cache_dir = tmp_path / "repro"
        assert native.load_library(cache_dir) is not None
        path = native._library_path(cache_dir)
        # A fresh name, so the damaged file is not the one already mapped.
        damaged = tmp_path / "other" / "repro"
        damaged.mkdir(parents=True, mode=0o700)
        target = native._library_path(damaged)
        good = path.read_bytes()
        bad = good[:len(good) // 3] if damage == "truncated" else b"\x7fELF junk"
        target.write_bytes(bad)
        assert native.load_library(damaged) is not None
        assert target.read_bytes() != bad
        self._assert_one_library(damaged)

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_group_or_world_writable_dir_is_refused(self, tmp_path, mode):
        cache_dir = tmp_path / "repro"
        cache_dir.mkdir()
        cache_dir.chmod(mode)
        assert native.load_library(cache_dir) is None
        assert list(cache_dir.iterdir()) == []

    def test_foreign_owned_dir_is_refused(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "repro"
        cache_dir.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        assert native.load_library(cache_dir) is None
        assert list(cache_dir.iterdir()) == []

    def test_unusable_cache_dir_falls_back(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert native.load_library(blocker / "repro") is None

    @pytest.mark.skipif(os.getuid() == 0, reason="root ignores directory write permissions")
    def test_unwritable_cache_dir_falls_back(self, tmp_path):
        cache_dir = tmp_path / "repro"
        cache_dir.mkdir(mode=0o500)
        try:
            assert native.load_library(cache_dir) is None
        finally:
            cache_dir.chmod(0o700)

    def test_compile_error_falls_back(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "_C_SOURCE", broken)
        cache_dir = tmp_path / "repro"
        assert native.load_library(cache_dir) is None
        assert list(cache_dir.iterdir()) == []

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_CC_COMMAND", ("no-such-cc-on-path", "-O2"))
        assert native.load_library(tmp_path / "repro") is None

    def test_import_builds_nothing(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", "import repro, repro.core.pipeline"],
                       env=env, check=True, timeout=120)
        assert list(tmp_path.iterdir()) == []
