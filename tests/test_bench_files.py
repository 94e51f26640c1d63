"""The committed benchmark trajectory: every BENCH_*.json keeps its layout.

``scripts/bench_pairs.py`` writes these files; its ``validate`` is the
layout's one definition, checked here against every committed file and
against hand-made documents it must accept or refuse.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_bench_pairs()
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_file_keeps_the_layout(path):
    doc = json.loads(path.read_text())
    assert bench_pairs.validate(doc) == []
    assert path.name == f"BENCH_{doc['label']}.json"
    for entry in doc["workloads"].values():
        assert all(pair["base_correct"] and pair["change_correct"] for pair in entry["pairs"])


def _pairs(base, change, metric="op_wall_s"):
    return [{"seed": seed, "first": "base" if seed % 2 else "change",
             "base": {metric: old}, "change": {metric: new},
             "base_correct": True, "change_correct": True}
            for seed, (old, new) in enumerate(zip(base, change), start=1)]


def _doc(pairs, better):
    return {
        "schema": bench_pairs.SCHEMA, "label": "t", "created": "2026-01-01T00:00:00+00:00",
        "host": {"machine": "x86_64", "cpu_flags": [], "cores": 2, "python": "3", "numpy": "1"},
        "base": {"rev": "a"}, "change": {"rev": "b"}, "seconds": 8.0,
        "workloads": {"oneshot_dense": {"pairs": pairs,
                                        "metrics": bench_pairs.summarise(pairs, better)}},
    }


def test_summary_counts_wins_in_the_better_direction():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 1.0, 1.0])
    wall = bench_pairs.summarise(pairs, {"op_wall_s": "lower"})["op_wall_s"]
    assert (wall["wins"], wall["ties"], wall["losses"]) == (3, 1, 1)
    assert wall["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert wall["change"]["median"] == 1.0 and wall["median_ratio"] == 1.0 / 3.0
    recall = bench_pairs.summarise(_pairs([0.9, 0.9], [0.95, 0.8], "overlap_recall"),
                                   {"overlap_recall": "higher"})["overlap_recall"]
    assert (recall["wins"], recall["losses"]) == (1, 1)


def test_validate_accepts_a_summarised_document():
    pairs = _pairs([1.0, 2.0, 3.0], [0.9, 1.8, 3.3])
    doc = json.loads(json.dumps(_doc(pairs, {"op_wall_s": "lower"})))
    assert bench_pairs.validate(doc) == []


@pytest.mark.parametrize("breakage", ["no_host", "bad_schema", "no_pairs", "string_metric",
                                      "stale_summary", "unknown_workload", "no_correct_flag"])
def test_validate_refuses_a_broken_document(breakage):
    doc = _doc(_pairs([1.0, 2.0, 3.0], [0.9, 1.8, 3.3]), {"op_wall_s": "lower"})
    broken = copy.deepcopy(doc)
    entry = broken["workloads"]["oneshot_dense"]
    if breakage == "no_host":
        del broken["host"]
    elif breakage == "bad_schema":
        broken["schema"] = bench_pairs.SCHEMA + 1
    elif breakage == "no_pairs":
        entry["pairs"] = []
    elif breakage == "string_metric":
        entry["pairs"][0]["base"]["op_wall_s"] = "1.0"
    elif breakage == "stale_summary":
        entry["pairs"][0]["change"]["op_wall_s"] = 5.0
    elif breakage == "unknown_workload":
        broken["workloads"]["other"] = entry
    elif breakage == "no_correct_flag":
        del entry["pairs"][1]["change_correct"]
    assert bench_pairs.validate(broken) != []
