"""Tests for topology-aware re-homing of hot lock-table entries.

The acceptance contract: the matched scenario pair draws bit-identical
request schedules, the re-homed run's end-to-end p99 beats static placement
under the topology-aware latency model, the swap ledger records the move,
and the whole thing is fingerprint-identical across all three deterministic
schedulers and across ``--jobs`` settings.
"""

from __future__ import annotations

import numpy as np

from repro.bench.campaign import CampaignSpec, run_campaign
from repro.scale.rehome import REHOME_POLICY, REHOME_SCENARIO, STATIC_HOT_SCENARIO
from repro.traffic.generators import generate_schedule

#: The matched pair at the campaign's shape: P=32 / 8 per node puts
#: ``bias_ranks=(24, 32)`` exactly on node 3 while entry 0 homes on node 0.
PAIR = CampaignSpec(
    name="scale-hot-tiny-test",
    schemes=("fompi-spin",),
    benchmarks=("scale-hot", "scale-hot-rehome"),
    process_counts=(32,),
    fw_values=(0.0,),
    iterations=32,
    procs_per_node=8,
    seed=17,
)


def _by_benchmark(rows):
    return {row["benchmark"]: row for row in rows}


class TestScenarioPair:
    def test_schedules_are_bit_identical(self):
        # The pair differs only in the attached policy: the generator draws
        # are name-independent, so every rank sees the same arrivals/keys.
        for rank in (0, 7, 24, 31):
            static = generate_schedule(STATIC_HOT_SCENARIO, 17, rank, 32)
            rehomed = generate_schedule(REHOME_SCENARIO, 17, rank, 32)
            assert np.array_equal(static.arrival_us, rehomed.arrival_us)
            assert np.array_equal(static.lock_index, rehomed.lock_index)

    def test_bias_concentrates_the_hot_key_on_the_far_node(self):
        biased = generate_schedule(STATIC_HOT_SCENARIO, 17, 24, 200)
        unbiased = generate_schedule(STATIC_HOT_SCENARIO, 17, 0, 200)
        biased_share = float(np.mean(biased.lock_index == 0))
        unbiased_share = float(np.mean(unbiased.lock_index == 0))
        assert biased_share > 0.6  # bias_fraction=0.75 plus the Zipf head
        assert biased_share > 2 * unbiased_share

    def test_policy_shape(self):
        (rule,) = REHOME_POLICY.rules
        assert rule.action == "rehome"
        assert rule.min_node_share > 0.0  # guards against flat-traffic thrash


class TestRehomeWin:
    def test_rehoming_beats_static_placement_on_p99(self):
        report = run_campaign(PAIR, cache=False, jobs=1)
        rows = _by_benchmark(report.rows)
        static = rows["scale-hot"]["percentiles"]
        rehomed = rows["scale-hot-rehome"]["percentiles"]
        assert rehomed["e2e_p99_us"] < static["e2e_p99_us"]
        assert rehomed["e2e_p999_us"] < static["e2e_p999_us"]

    def test_swap_ledger_records_the_move(self):
        report = run_campaign(PAIR, cache=False, jobs=1)
        rows = _by_benchmark(report.rows)
        # Policy-free runs have no swap ledger at all (no new return keys,
        # so pre-existing scenario fingerprints stay untouched).
        assert rows["scale-hot"]["percentiles"].get("swaps_total", 0) == 0
        # Every rank performs the collective re-home crossing; the policy
        # caps the plan at max_swaps_per_boundary entries.
        swaps = rows["scale-hot-rehome"]["percentiles"]["swaps_total"]
        assert swaps > 0
        assert swaps % 32 == 0  # collective: same count on every rank


class TestRehomeDeterminism:
    REHOME_ONLY = CampaignSpec(
        name="scale-rehome-det-test",
        schemes=("fompi-spin",),
        benchmarks=("scale-hot-rehome",),
        process_counts=(32,),
        fw_values=(0.0,),
        iterations=32,
        procs_per_node=8,
        seed=17,
    )

    def test_schedulers_agree_fingerprint_for_fingerprint(self, reference):
        views = {}
        for scheduler in ("horizon", reference):
            report = run_campaign(
                self.REHOME_ONLY, cache=False, jobs=1, scheduler=scheduler
            )
            views[scheduler] = [
                (row["fingerprint"], row["percentiles"], row["phases"])
                for row in report.rows
            ]
        assert views["horizon"] == views[reference]

    def test_parallel_jobs_match_serial_bit_for_bit(self):
        serial = run_campaign(self.REHOME_ONLY, cache=False, jobs=1)
        parallel = run_campaign(self.REHOME_ONLY, cache=False, jobs=2)
        assert [(r["case"], r["fingerprint"]) for r in serial.rows] == [
            (r["case"], r["fingerprint"]) for r in parallel.rows
        ]
