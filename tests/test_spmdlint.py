"""spmdlint unit tests: each rule against bad-fixture snippets, suppression
syntax, the SL005 project rule against the real tree, and the requirement
that the shipped source lints clean (the zero-findings gate CI enforces).
"""

from __future__ import annotations

import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source
from repro.core.counters import (
    PIPELINE_COUNTERS,
    REGISTERED_COUNTERS,
    SCHEDULE_FLAG_COUNTERS,
)
from repro.core.driver import run_dibella

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rules(findings):
    return [finding.rule for finding in findings]


def _lint(snippet: str, path: str = "module.py"):
    return lint_source(textwrap.dedent(snippet), path)


class TestSL001RankDependentCollectives:
    def test_collective_under_rank_if(self):
        findings = _lint("""
            def stage(comm):
                if comm.rank == 0:
                    comm.barrier()
        """)
        assert _rules(findings) == ["SL001"]
        assert "rank-dependent" in findings[0].message

    def test_collective_in_else_branch(self):
        findings = _lint("""
            def stage(comm):
                if comm.rank == 0:
                    x = 1
                else:
                    comm.allreduce(1)
        """)
        assert _rules(findings) == ["SL001"]

    def test_collective_under_rank_while(self):
        findings = _lint("""
            def stage(comm):
                while comm.rank < limit:
                    comm.bcast(None)
        """)
        assert _rules(findings) == ["SL001"]

    def test_rank_free_branch_is_clean(self):
        findings = _lint("""
            def stage(comm, flag):
                if flag:
                    comm.barrier()
        """)
        assert findings == []

    def test_rank_read_without_collective_is_clean(self):
        findings = _lint("""
            def stage(comm, state):
                if comm.rank == 0:
                    state.counters["x"] = 1
        """)
        assert findings == []

    def test_collective_after_rank_branch_is_clean(self):
        findings = _lint("""
            def stage(comm):
                if comm.rank == 0:
                    x = 1
                comm.barrier()
        """)
        assert findings == []


class TestSL002PhaseLabels:
    def test_unlabelled_alltoallv(self):
        findings = _lint("""
            def stage(comm, send):
                return comm.alltoallv(send)
        """)
        assert _rules(findings) == ["SL002"]

    def test_explicit_none_label(self):
        findings = _lint("""
            def stage(comm, send):
                return comm.alltoallv_start(send, label=None)
        """)
        assert _rules(findings) == ["SL002"]

    def test_unlabelled_schedule(self):
        findings = _lint("""
            def stage(comm, timer):
                return SuperstepSchedule(comm, timer, 3)
        """)
        assert _rules(findings) == ["SL002"]

    def test_labelled_calls_are_clean(self):
        findings = _lint("""
            def stage(comm, timer, send):
                comm.alltoallv(send, label="bloom")
                handle = comm.alltoallv_start(send, label="bloom")
                return SuperstepSchedule(comm, timer, 3, label="bloom")
        """)
        assert findings == []


class TestSL003Nondeterminism:
    def test_iteration_over_set(self):
        findings = _lint("""
            def f(items):
                for item in set(items):
                    consume(item)
        """)
        assert _rules(findings) == ["SL003"]

    def test_comprehension_over_set_literal(self):
        findings = _lint("""
            def f(a, b):
                return [g(x) for x in {a, b}]
        """)
        assert _rules(findings) == ["SL003"]

    def test_set_algebra_iteration(self):
        findings = _lint("""
            def f(a, b):
                for key in set(a) - set(b):
                    consume(key)
        """)
        assert _rules(findings) == ["SL003"]

    def test_sorted_set_is_clean(self):
        findings = _lint("""
            def f(items):
                for item in sorted(set(items)):
                    consume(item)
        """)
        assert findings == []

    def test_global_numpy_rng(self):
        findings = _lint("""
            import numpy as np
            def f():
                return np.random.rand(3)
        """)
        assert _rules(findings) == ["SL003"]

    def test_seeded_generator_is_clean(self):
        findings = _lint("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed).random(3)
        """)
        assert findings == []

    def test_stdlib_global_rng(self):
        findings = _lint("""
            import random
            def f(xs):
                random.shuffle(xs)
        """)
        assert _rules(findings) == ["SL003"]

    def test_wall_clock(self):
        findings = _lint("""
            import time
            def f():
                return time.time()
        """)
        assert _rules(findings) == ["SL003"]

    def test_perf_counter_is_clean(self):
        findings = _lint("""
            import time
            def f():
                return time.perf_counter()
        """)
        assert findings == []


class TestSL004CounterRegistry:
    def test_unregistered_counter_write(self):
        findings = _lint("""
            def stage(state):
                state.counters["not_a_real_counter"] = 1
        """, path="src/repro/core/stages.py")
        assert _rules(findings) == ["SL004"]
        assert "not_a_real_counter" in findings[0].message

    def test_registered_counter_write_is_clean(self):
        findings = _lint("""
            def stage(state):
                state.counters["overlap_pairs"] = 1
                state.counters["dp_cells"] += 10
        """, path="src/repro/core/stages.py")
        assert findings == []

    def test_non_literal_key(self):
        findings = _lint("""
            def stage(state, name):
                state.counters[name] = 1
        """, path="src/repro/core/pipeline.py")
        assert _rules(findings) == ["SL004"]

    def test_dynamic_update(self):
        findings = _lint("""
            def stage(state, extra):
                state.counters.update(extra)
        """, path="src/repro/core/supersteps.py")
        assert _rules(findings) == ["SL004"]

    def test_literal_update_checked_per_key(self):
        findings = _lint("""
            def stage(state):
                state.counters.update({"overlap_pairs": 1, "bogus_key": 2})
        """, path="src/repro/core/stages.py")
        assert _rules(findings) == ["SL004"]
        assert "bogus_key" in findings[0].message

    def test_counter_writes_outside_audited_files_ignored(self):
        findings = _lint("""
            def helper(state):
                state.counters["anything_goes"] = 1
        """, path="src/repro/bench/report.py")
        assert findings == []


class TestSuppressions:
    def test_same_line_suppression(self):
        findings = _lint("""
            def stage(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmdlint: disable=SL001 fixture: safe here
        """)
        assert findings == []

    def test_comment_block_above_suppresses_next_line(self):
        findings = _lint("""
            def stage(comm, send):
                # spmdlint: disable=SL002 fixture: label applied by the
                # caller via functools.partial
                return comm.alltoallv(send)
        """)
        assert findings == []

    def test_suppression_without_reason_is_reported(self):
        findings = _lint("""
            def stage(comm):
                if comm.rank == 0:
                    comm.barrier()  # spmdlint: disable=SL001
        """)
        assert _rules(findings) == ["SL000"]
        assert "reason" in findings[0].message

    def test_unknown_rule_id_is_reported(self):
        findings = _lint("""
            x = 1  # spmdlint: disable=SL999 not a rule
        """)
        assert _rules(findings) == ["SL000"]

    def test_suppression_only_covers_named_rule(self):
        findings = _lint("""
            def stage(comm, send):
                if comm.rank == 0:
                    comm.alltoallv(send)  # spmdlint: disable=SL002 fixture
        """)
        assert _rules(findings) == ["SL001"]

    def test_example_inside_string_is_not_a_suppression(self):
        findings = _lint('''
            DOC = """use # spmdlint: disable=SL001 <reason> to suppress"""
        ''')
        assert findings == []


class TestProjectLint:
    def test_rule_catalogue_covers_all_emitted_rules(self):
        assert set(RULES) == {"SL000", "SL001", "SL002", "SL003", "SL004",
                              "SL005"}

    def test_shipped_tree_is_clean(self):
        findings, n_files = lint_paths([REPO_ROOT / "src"])
        assert findings == []
        assert n_files > 50

    def test_sl005_catches_unplumbed_knob(self, tmp_path):
        # A synthetic repo: one knob has a CLI flag but no env/README row.
        (tmp_path / "README.md").write_text(
            "| Knob | Config field | CLI | Env |\n"
            "|---|---|---|---|\n"
            "| Window | `window` | `--window` | `DIBELLA_WINDOW` |\n")
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "cli.py").write_text(textwrap.dedent("""
            def build(parser):
                parser.add_argument("--window", type=int)
                parser.add_argument("--depth", type=int)
        """))
        (pkg / "config.py").write_text(textwrap.dedent("""
            import os
            from dataclasses import dataclass, field

            @dataclass
            class PipelineConfig:
                window: int = field(
                    default_factory=lambda: int(os.environ.get("DIBELLA_WINDOW", "4")))
                depth: int = 2
                internal_hint: float = 0.5
        """))
        findings, _ = lint_paths([tmp_path])
        sl005 = [finding for finding in findings if finding.rule == "SL005"]
        assert len(sl005) == 1
        assert "'depth'" in sl005[0].message
        assert "env" in sl005[0].message and "README" in sl005[0].message

    def test_sl005_catches_readme_row_of_a_removed_knob(self, tmp_path):
        # Rows naming a deleted field and an init-only name are leftovers; a
        # reporting flag's "—" cell is exempt.
        (tmp_path / "README.md").write_text(
            "| Knob | Config field | CLI | Env |\n"
            "|---|---|---|---|\n"
            "| Window | `window` | `--window` | `DIBELLA_WINDOW` |\n"
            "| Cache bound | `cache_mb` | `--cache-mb` | `DIBELLA_CACHE_MB` |\n"
            "| Legacy | `legacy` | `--legacy` | `DIBELLA_LEGACY` |\n"
            "| Report | — | `--stats` | — |\n")
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "cli.py").write_text(textwrap.dedent("""
            def build(parser):
                parser.add_argument("--window", type=int)
                parser.add_argument("--stats", action="store_true")
        """))
        (pkg / "config.py").write_text(textwrap.dedent("""
            import os
            from dataclasses import InitVar, dataclass, field

            @dataclass
            class PipelineConfig:
                window: int = field(
                    default_factory=lambda: int(os.environ.get("DIBELLA_WINDOW", "4")))
                legacy: InitVar[float] = 0.0
        """))
        findings, _ = lint_paths([tmp_path])
        sl005 = [finding for finding in findings if finding.rule == "SL005"]
        assert [(Path(f.path).name, f.line) for f in sl005] == [
            ("README.md", 4), ("README.md", 5)]
        assert "`cache_mb`" in sl005[0].message
        assert "`legacy`" in sl005[1].message


    def test_sl005_flags_the_removed_hash_table_shards_row(self, tmp_path):
        # The shipped config and CLI with the deleted knob's README row put
        # back: SL005 names that row and nothing else.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        row = ("| Table sharding | `hash_table_shards` | `--hash-shards` | "
               "`DIBELLA_HASH_SHARDS` | 4 | Code-range shards |\n")
        anchor = "| Seed mode |"
        assert anchor in readme
        (tmp_path / "README.md").write_text(readme.replace(anchor, row + anchor, 1))
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "cli.py").write_text(
            (REPO_ROOT / "src" / "repro" / "cli.py").read_text(encoding="utf-8"))
        (pkg / "config.py").write_text(
            (REPO_ROOT / "src" / "repro" / "core" / "config.py").read_text(encoding="utf-8"))
        findings, _ = lint_paths([tmp_path])
        sl005 = [finding for finding in findings if finding.rule == "SL005"]
        assert len(sl005) == 1
        assert Path(sl005[0].path).name == "README.md"
        assert "`hash_table_shards`" in sl005[0].message


class TestCounterRegistry:
    def test_schedule_flags_are_registered(self):
        assert SCHEDULE_FLAG_COUNTERS <= REGISTERED_COUNTERS

    def test_descriptions_are_nonempty(self):
        assert all(description.strip()
                   for description in PIPELINE_COUNTERS.values())

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pipeline_emits_only_registered_counters(self, micro_dataset,
                                                     micro_config, backend):
        result = run_dibella(micro_dataset.reads,
                             config=replace(micro_config, backend=backend),
                             n_nodes=1, ranks_per_node=2)
        unregistered = set(result.counters) - REGISTERED_COUNTERS
        assert unregistered == set()
