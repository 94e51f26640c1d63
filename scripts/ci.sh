#!/usr/bin/env bash
# Minimal CI for the diBELLA reproduction.
#
# Tiers:
#   docs  — dead-link check over README.md and docs/ (always runs first).
#   lint  — spmdlint (src/repro/analysis): the SPMD correctness rules
#           SL001-SL005 over src/, zero findings required; plus a ruff
#           companion pass (pinned ruff.toml) when a ruff binary is on
#           PATH (the container does not ship one, so it is gated).
#   fast  — unit tests only (-m "not slow"), a few seconds; run on every change.
#           Runs eight times: under the default thread backend, under the
#           multiprocess shared-memory backend (DIBELLA_BACKEND=process),
#           under the process backend with the persistent rank pool
#           (DIBELLA_POOL=1) so pooled engine reuse is exercised suite-wide,
#           with 2-bit wire packing disabled (DIBELLA_WIRE_PACKING=0) so
#           the ASCII read-exchange fallback stays exercised, with
#           double buffering disabled (DIBELLA_DOUBLE_BUFFER=0) so every
#           stage's bulk-synchronous superstep schedule stays exercised,
#           with the minimizer seed mode (DIBELLA_SEED_MODE=minimizer)
#           so the windowed-sketch front-end of stages 1-3 is exercised
#           suite-wide, and with the hierarchical two-level collectives
#           (DIBELLA_COLLECTIVE=hier) so every alltoallv in the suite rides
#           the gather/leader-exchange/scatter protocol.  An eighth pass
#           runs with the runtime sanitizer armed (DIBELLA_SANITIZE=1):
#           collective congruence checks, split-phase lifecycle guards and
#           the hang watchdog across the whole fast tier, proving the
#           checks are observation-only.
#   serve — build/serve smoke (scripts/serve_smoke.py): build a resident
#           index on a pooled process backend, drain two query batches,
#           assert zero rebuild counters.  Pure counter checks, runs on
#           every change.
#   perfbench — benchmark smoke (perfbench/check_smoke.py): runs the
#           benchmark command at tiny size on every workload, untraced and
#           traced, and asserts every end-to-end and per-layer metric is
#           printed with its unit.  The traced run wraps functions by their
#           module-level names in repro.core.stages and repro.core.pipeline,
#           so a refactor there that drops a per-layer metric fails here.
#           About a minute on 2 cores; runs on every change.
#   slow  — the end-to-end pipeline / harness / baseline tests, also under
#           both runtime backends.
#   bench — the perf gates: the overlap microbenchmark (pair generation,
#           consolidation and seed selection vs their loop oracles) and the
#           backend scaling bench (process-backend overlap-stage speedup,
#           double-buffered exposed-exchange reduction for the overlap and
#           k-mer stages, pool amortisation — enforced only on hosts with
#           enough cores — the serve-latency gate: warm query-batch p99
#           well under the cold one-shot wall, zero rebuilds always
#           asserted — the wire-packing byte gate: packed alignment
#           read payload <= 0.3x raw, always enforced — the seed-sketch
#           ablation gate: minimizer mode at w=11 must cut stage 1-3 k-mer
#           bytes >= 3x and the retained-table peak >= 2x at >= 95% recall
#           of the baseline's true overlaps, enforced on >= 4-core hosts —
#           and the hier-collective gate: flat-vs-hier bit identity, the
#           exact leader-protocol segment drop and cross-group byte
#           equality always asserted, the projected exposed-exchange win
#           on the grouped Cori deployment enforced on >= 4-core hosts).
#
# Usage:
#   scripts/ci.sh          # everything (the tier-1 gate plus the perf gates)
#   scripts/ci.sh fast     # just the fast tier
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-all}"

echo "== docs: dead-link check (README.md, docs/) =="
python scripts/check_doc_links.py

echo "== lint: spmdlint SL001-SL005 over src/ (zero findings required) =="
python -m repro.analysis.lint src/

if command -v ruff >/dev/null 2>&1; then
    echo "== lint: ruff companion pass (pinned ruff.toml) =="
    ruff check --config ruff.toml src tests scripts benchmarks
else
    echo "== lint: ruff not on PATH; skipping companion pass =="
fi

echo "== fast tier: unit tests (thread backend) =="
python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (process backend) =="
DIBELLA_BACKEND=process python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (process backend + persistent rank pool) =="
DIBELLA_POOL=1 DIBELLA_BACKEND=process python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (ASCII wire fallback, DIBELLA_WIRE_PACKING=0) =="
DIBELLA_WIRE_PACKING=0 python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (bulk-synchronous supersteps, DIBELLA_DOUBLE_BUFFER=0) =="
DIBELLA_DOUBLE_BUFFER=0 python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (minimizer seed mode, DIBELLA_SEED_MODE=minimizer) =="
DIBELLA_SEED_MODE=minimizer python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (hierarchical collectives, DIBELLA_COLLECTIVE=hier) =="
DIBELLA_COLLECTIVE=hier python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (runtime sanitizer armed, DIBELLA_SANITIZE=1) =="
DIBELLA_SANITIZE=1 python -m pytest tests -m "not slow" -q

echo "== serve smoke: resident index, 2 query batches, zero rebuilds =="
python scripts/serve_smoke.py

echo "== chaos smoke: rank killed mid-batch, pool respawned, batch retried =="
python scripts/serve_smoke.py --chaos

echo "== perfbench smoke: every benchmark metric printed with its unit =="
python perfbench/check_smoke.py

if [ "$tier" = "all" ]; then
    echo "== slow tier: end-to-end pipeline tests (thread backend) =="
    python -m pytest tests -m slow -q

    echo "== slow tier: end-to-end pipeline tests (process backend) =="
    DIBELLA_BACKEND=process python -m pytest tests -m slow -q

    echo "== perf gate: overlap microbenchmark =="
    python benchmarks/bench_overlap_microbench.py

    echo "== perf gate: backend scaling =="
    python benchmarks/bench_backend_scaling.py

    echo "== perf gate: seed-sketch ablation (minimizer volume/recall) =="
    python benchmarks/bench_ablation_seed_sketch.py
fi
