"""Chaos conformance suite: detection keeps working under canned faults.

For each detection scenario (port scan, DDoS) and each canned fault plan,
the suite asserts that

* the attacker is still detected (and, for the port scan, the benign host
  is still *not* flagged);
* recall stays within ``RECALL_TOLERANCE`` of the no-fault baseline;
* the documented fault actually applied (not silently skipped);
* replaying the same (plan, seed) yields a byte-identical deterministic
  telemetry snapshot, and a different seed on a stochastic plan does not.

Scenario runs are cached per (scenario, plan, seed) — each configuration
is simulated once no matter how many assertions consume it.
"""

import functools
import os

import pytest

from repro.chaos import canned_plan
from repro.scenarios import RECALL_TOLERANCE, run_scenario

PLANS = ("midrun-failover", "shard-loss", "link-flap")
# The ATHENA_CHAOS=1 CI leg widens the sweep to every canned plan.
if os.environ.get("ATHENA_CHAOS") == "1":
    PLANS = PLANS + ("total-db-outage", "noisy-southbound")


@functools.lru_cache(maxsize=None)
def _run(scenario, plan_name=None, seed=0):
    plan = canned_plan(plan_name) if plan_name else None
    return run_scenario(scenario, plan=plan, seed=seed)


@pytest.fixture(scope="module", params=("portscan", "ddos"))
def scenario(request):
    return request.param


class TestBaselines:
    def test_detection_fires_without_faults(self, scenario):
        result = _run(scenario)
        assert result.detected
        assert result.recall > 0.5
        assert result.faults_applied == 0

    def test_no_fault_degradation_without_faults(self, scenario):
        result = _run(scenario)
        # At most the warm-up round (no features generated yet) may be
        # skipped; nothing is ever buffered without an injected outage.
        assert result.degraded_rounds <= 1
        assert result.pending_writes == 0


class TestDetectionUnderFaults:
    @pytest.mark.parametrize("plan_name", PLANS)
    def test_attack_still_detected(self, scenario, plan_name):
        result = _run(scenario, plan_name)
        assert result.detected, (
            f"{scenario} under {plan_name}: attacker "
            f"{result.attacker_ip} not in {result.flagged_ips}"
        )

    @pytest.mark.parametrize("plan_name", PLANS)
    def test_recall_within_tolerance_of_baseline(self, scenario, plan_name):
        baseline = _run(scenario).recall
        result = _run(scenario, plan_name)
        assert result.recall >= baseline - RECALL_TOLERANCE, (
            f"{scenario} under {plan_name}: recall {result.recall:.3f} "
            f"fell more than {RECALL_TOLERANCE} below baseline "
            f"{baseline:.3f}"
        )

    @pytest.mark.parametrize("plan_name", PLANS)
    def test_faults_actually_applied(self, scenario, plan_name):
        result = _run(scenario, plan_name)
        assert result.faults_applied >= 1
        assert result.chaos_log

    def test_midrun_failover_recovers_the_instance(self, scenario):
        result = _run(scenario, "midrun-failover")
        assert result.recoveries >= 1
        assert any("rejoined as standby" in line for line in result.chaos_log)


class TestShardLossDuringFeatureWrites:
    def test_writes_survive_total_outage(self):
        # Every shard down while features stream in: the retry queue must
        # buffer the writes (never raising into the pipeline) and commit
        # them once the shards return.
        result = _run("ddos", "total-db-outage")
        assert result.detected
        assert result.faults_applied == 3
        assert result.recoveries == 3
        assert result.pending_writes == 0

    def test_detector_degrades_and_recovers(self):
        result = _run("ddos", "total-db-outage")
        assert result.degraded_rounds >= 1
        assert result.rounds_recovered >= 1

    def test_replica_lag_catches_up(self):
        result = _run("ddos", "shard-loss")
        assert any("replica_lag" in line for line in result.chaos_log)
        assert any(
            "writes applied" in line for line in result.chaos_log
        )


class TestDeterministicReplay:
    def test_same_plan_and_seed_is_byte_identical(self, scenario):
        first = _run.__wrapped__(scenario, "midrun-failover", seed=5)
        second = _run.__wrapped__(scenario, "midrun-failover", seed=5)
        assert first.snapshot_json == second.snapshot_json
        assert first.chaos_log == second.chaos_log
        assert first.flagged_ips == second.flagged_ips

    def test_stochastic_plan_replays_identically(self):
        first = _run.__wrapped__("ddos", "noisy-southbound", seed=21)
        second = _run.__wrapped__("ddos", "noisy-southbound", seed=21)
        assert first.snapshot_json == second.snapshot_json

    def test_different_seed_changes_stochastic_faults(self):
        first = _run("ddos", "noisy-southbound", seed=21)
        second = _run("ddos", "noisy-southbound", seed=22)
        assert first.snapshot_json != second.snapshot_json

    def test_snapshot_json_is_nonempty_and_parsable(self, scenario):
        import json

        result = _run(scenario, "midrun-failover")
        data = json.loads(result.snapshot_json)
        assert data
