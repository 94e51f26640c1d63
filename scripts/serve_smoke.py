"""CI smoke for the build/serve split: build once, serve twice, rebuild never.

Builds a resident index over 75% of a tiny synthetic data set (pooled
process backend), drains two query batches through
:class:`~repro.core.service.AlignmentService`, and asserts the residency
contract:

* every batch reports ``index_reuse_hits`` from all ranks and zero
  ``index_build_runs``;
* no batch moves any stage-1/2 build traffic (``kmers_received_bloom`` and
  ``kmers_received_hashtable`` both zero);
* both batches produce alignments (the serve path does real work, it is
  not vacuously "fast").

With ``--chaos`` the same session runs under a deterministic fault plan
that SIGKILLs a rank mid-way through the first query batch
(``docs/fault-tolerance.md``): the service must detect the death, respawn
the pool, retry the batch, and report the recovery in the batch counters —
while the second batch reuses the rebuilt resident index as usual.

Pure counter checks — deterministic on any host, so ``ci.sh`` runs this on
every change (no timing).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import AlignmentService, PipelineConfig
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.mpisim.backend import reset_recovery_counters
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet

RANKS = 4

#: --chaos: kill rank 1 at superstep 2 of the first query batch (the index
#: build is run 0); retried runs are fault-free, so recovery is one respawn.
CHAOS_PLAN = "kill:rank=1:step=2:run=1"


def main() -> int:
    chaos = "--chaos" in sys.argv[1:]
    spec = DatasetSpec(
        name="serve-smoke",
        genome=GenomeSpec(length=4000, repeat_fraction=0.0, seed=77),
        reads=ReadSimSpec(coverage=15.0, mean_read_length=900,
                          min_read_length=400, error_rate=0.08, seed=78),
    )
    reads = list(generate_dataset(spec).reads)
    n_index = (3 * len(reads)) // 4
    queries = reads[n_index:]
    assert len(queries) >= 2, "smoke data set too small to form 2 query batches"

    reset_recovery_counters()
    config = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=15.0,
                            error_rate_hint=0.08, backend="process", pool=True,
                            fault_plan=CHAOS_PLAN if chaos else None,
                            serve_max_retries=2)
    service = AlignmentService(ReadSet(reads[:n_index]), config=config,
                               topology=Topology.single_node(RANKS))
    try:
        build = service.build()
        print(f"serve smoke: index built ({build.counters['index_retained_kmers']} "
              f"retained k-mers on {RANKS} ranks)")
        half = len(queries) // 2
        service.submit(queries[:half])
        records = service.drain()
        service.submit(queries[half:])
        records += service.drain()
        assert len(records) == 2, f"expected 2 query batches, got {len(records)}"
        for record in records:
            counters = record.result.counters
            label = f"batch {record.batch_index}"
            recovered = chaos and record.batch_index == 0
            if recovered:
                # The killed batch was retried on a respawned pool: the
                # retry rebuilds the resident index inside the run, and
                # the recovery counters carry the evidence.
                assert counters["rank_failures_detected"] >= 1, \
                    f"{label}: injected kill was never detected"
                assert counters["pool_respawns"] == RANKS, \
                    f"{label}: expected {RANKS} respawned workers, " \
                    f"got {counters.get('pool_respawns', 0)}"
                assert counters["query_batch_retries"] == 1, \
                    f"{label}: expected exactly one retry, " \
                    f"got {counters.get('query_batch_retries', 0)}"
                assert counters["recovery_seconds"] >= 1, \
                    f"{label}: recovery_seconds not recorded"
            else:
                assert counters["index_reuse_hits"] == RANKS, \
                    f"{label}: expected {RANKS} index reuse hits, " \
                    f"got {counters.get('index_reuse_hits', 0)}"
                assert counters.get("index_build_runs", 0) == 0, \
                    f"{label}: rebuilt the index"
                assert counters.get("kmers_received_bloom", 0) == 0, \
                    f"{label}: moved bloom-stage build traffic"
                assert counters.get("kmers_received_hashtable", 0) == 0, \
                    f"{label}: refilled the hash table"
            assert counters["accepted_alignments"] > 0, \
                f"{label}: produced no alignments"
            extra = (f"recovered: failures={counters['rank_failures_detected']}, "
                     f"respawns={counters['pool_respawns']}, "
                     f"retries={counters['query_batch_retries']}"
                     if recovered else
                     f"reuse={counters['index_reuse_hits']}, rebuilds=0")
            print(f"serve smoke: {label} ok ({record.n_reads} reads, "
                  f"{counters['accepted_alignments']} alignments, {extra})")
    finally:
        service.shutdown()
        reset_persistent_read_caches()
        reset_resident_indexes()
    print(f"serve smoke{' (chaos)' if chaos else ''}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
