#!/usr/bin/env bash
# Minimal CI for the diBELLA reproduction.
#
# Tiers:
#   docs  — dead-link check over README.md and docs/ (always runs first).
#   lint  — spmdlint (src/repro/analysis): the SPMD correctness rules
#           SL001-SL005 over src/, zero findings required; plus a ruff
#           companion pass (pinned ruff.toml) when a ruff binary is on
#           PATH (the container does not ship one, so it is gated; the
#           fast tier's tests/test_imports.py finds unused imports
#           without it).
#   compiled tier — prints the active tier (the compiled C library with the
#           x-drop kernel's lane counts for both element types, e.g.
#           "x-drop at 32×int16 / 16×int32 lanes", or NumPy) and fails when
#           `cc` is on PATH but the library did not load, so a C compile
#           error cannot silently leave CI on the NumPy bodies of any
#           compiled entry: the x-drop
#           kernel, the Bloom filter, the key gate, the k-mer extraction,
#           `route_rows`, `route_occurrences` (which packs stage 2's
#           occurrence keys) and `hll_add`; with `cc` on PATH
#           it also builds the one source, src/repro/_native.c, with -Wall
#           -Wextra -Werror, x86 intrinsics included (docs/architecture.md,
#           "The compiled tier").
#   fast  — unit tests only (-m "not slow"), a few seconds; run on every change.
#           Runs three times, covering the knobs in pairs: under the default
#           thread backend; under the multiprocess shared-memory backend
#           with the runtime sanitizer armed (DIBELLA_BACKEND=process
#           DIBELLA_SANITIZE=1: collective congruence checks, split-phase
#           lifecycle guards and the hang watchdog across the whole fast
#           tier, proving the checks are observation-only; process ranks
#           always run on the rank pool, so this pass also exercises
#           pooled engine reuse suite-wide); and with the minimizer seed
#           mode on (DIBELLA_SEED_MODE=minimizer) so the windowed-sketch
#           front-end of stages 1-3 stays exercised suite-wide.
#   examples — runs the four examples/ scripts to completion (quickstart,
#           assembly graph, E. coli overlap study, cross-platform scaling;
#           about 6 s on 2 cores), so a change to a module they import that
#           breaks them fails CI; runs on every change.
#   serve — build/serve smoke (scripts/serve_smoke.py): build a resident
#           index on the process backend's rank pool, drain two query batches,
#           assert zero rebuild counters; then the chaos smoke (a rank
#           killed mid-batch, pool respawned, batch retried: the retry finds
#           the index missing, the index build reruns, the batch relaunches).
#           Pure counter checks, runs on every change.
#   leak guard — the process-backend fast pass, both serve smokes, the
#           perfbench smoke and the process-backend slow pass run under
#           no_shm_leak: the psm_* names in /dev/shm are snapshotted before
#           the pass, and any name created during the pass that survives it
#           fails CI.  Pooled ranks keep their shared-memory arenas for the
#           pool's lifetime, so these passes prove that pool shutdown
#           reclaims them.
#   perfbench — benchmark smoke (perfbench/check_smoke.py): runs the
#           benchmark command at tiny size on every workload, untraced and
#           traced, and asserts every end-to-end and per-layer metric is
#           printed with its unit.  The traced run wraps functions by their
#           module-level names in repro.core.stages and repro.core.pipeline,
#           so a refactor there that drops a per-layer metric fails here.
#           About a minute on 2 cores; runs on every change.
#   slow  — the end-to-end pipeline / harness / baseline tests, also under
#           both runtime backends.
#   figures — the paper's figure and table benches (benchmarks/, reduced
#           node series: REPRO_BENCH_FULL=0), about 30 s on 2 cores; each
#           asserts its figure's expected shape.  Their rows go to the
#           git-ignored benchmarks/results/.
#   tree guard — `git status --porcelain` is snapshotted when CI starts and
#           compared when it ends: a pass that writes, deletes or modifies a
#           file git sees fails CI and the changed paths are printed (a
#           file already dirty when CI starts is not checked again).
#           Skipped outside a git work tree.
#
# Usage:
#   scripts/ci.sh          # everything (adds the slow tier and the figures)
#   scripts/ci.sh fast     # just the fast tier
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-all}"

# Sorted names of the live psm_* shared-memory segments, one per line.
shm_names() {
    ls /dev/shm 2>/dev/null | grep '^psm_' | sort || true
}

# Run "$@"; fail if it leaves behind a psm_* segment it created.
no_shm_leak() {
    local before leaked
    before=$(shm_names)
    "$@"
    leaked=$(comm -13 <(echo "$before") <(shm_names))
    if [ -n "$leaked" ]; then
        echo "shared-memory segments left behind by: $*" >&2
        echo "$leaked" >&2
        exit 1
    fi
}

# The work tree as git sees it ("" outside a git work tree).
tree_status() {
    git status --porcelain 2>/dev/null || true
}

in_work_tree=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_work_tree=true
fi
tree_before=$(tree_status)

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

echo "== compiled tier =="
native_tier=$(python -c 'from repro.native import library
compiled = library()
print("numpy" if compiled is None else f"compiled (x-drop at {2 * compiled.lanes}×int16 / "
                                        f"{compiled.lanes}×int32 lanes)")')
echo "compiled tier: $native_tier"
if command -v cc >/dev/null 2>&1; then
    # The command the library is built with (repro.native._CC_COMMAND).
    read -r -a cc_command < <(python -c 'from repro.native import _CC_COMMAND
print(" ".join(_CC_COMMAND))')
    if [ "$native_tier" = "numpy" ]; then
        echo "cc is on PATH but the compiled tier did not load; compiler output:" >&2
        "${cc_command[@]}" -o /dev/null src/repro/_native.c >&2 || true
        exit 1
    fi
    echo "== compiled tier: warning-clean build (-Wall -Wextra -Werror) =="
    "${cc_command[@]}" -Wall -Wextra -Werror -o /dev/null src/repro/_native.c
fi

echo "== fast tier: unit tests (thread backend) =="
python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (process backend + runtime sanitizer, DIBELLA_SANITIZE=1) =="
no_shm_leak env DIBELLA_SANITIZE=1 DIBELLA_BACKEND=process \
    python -m pytest tests -m "not slow" -q

echo "== fast tier: unit tests (minimizer seed mode, DIBELLA_SEED_MODE=minimizer) =="
DIBELLA_SEED_MODE=minimizer python -m pytest tests -m "not slow" -q

echo "== examples: every examples/ script runs to completion =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" >/dev/null
done

echo "== serve smoke: resident index, 2 query batches, zero rebuilds =="
no_shm_leak python scripts/serve_smoke.py

echo "== chaos smoke: rank killed mid-batch, pool respawned, batch retried =="
no_shm_leak python scripts/serve_smoke.py --chaos

echo "== perfbench smoke: every benchmark metric printed with its unit =="
no_shm_leak python perfbench/check_smoke.py

if [ "$tier" = "all" ]; then
    echo "== slow tier: end-to-end pipeline tests (thread backend) =="
    python -m pytest tests -m slow -q

    echo "== slow tier: end-to-end pipeline tests (process backend) =="
    no_shm_leak env DIBELLA_BACKEND=process python -m pytest tests -m slow -q

    echo "== figures: the paper's figure and table benches (reduced series) =="
    REPRO_BENCH_FULL=0 python -m pytest benchmarks -q
fi

if $in_work_tree; then
    echo "== tree guard: CI left the work tree as it found it =="
    tree_after=$(tree_status)
    if [ "$tree_before" != "$tree_after" ]; then
        echo "the work tree changed during CI (git status --porcelain):" >&2
        comm -3 <(echo "$tree_before" | sort) <(echo "$tree_after" | sort) >&2
        exit 1
    fi
fi
