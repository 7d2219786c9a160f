"""Batch-vs-streaming equivalence suite (docs/STREAMING.md contract).

Each scenario drives the *same* simulated attack through the batch
query/pull pipeline and the event-driven streaming pipeline, with no
fault plan and under each of the conformance suite's fault plans, then
asserts:

* both paths detect the attacker;
* streaming recall lands within ``RECALL_TOLERANCE`` of batch recall;
* two identical same-seed runs produce byte-identical alert streams
  (the determinism contract), and different seeds on a stochastic plan
  produce different ones.
"""

import functools

import pytest

from repro.chaos import canned_plan
from repro.scenarios import RECALL_TOLERANCE, SCENARIOS, run_scenario

PLANS = (None, "midrun-failover", "shard-loss", "link-flap")


@functools.lru_cache(maxsize=None)
def _run(scenario, plan_name=None, seed=0):
    plan = canned_plan(plan_name) if plan_name else None
    return run_scenario(scenario, seed=seed, plan=plan, streaming=True)


@pytest.fixture(
    scope="module",
    params=[(scenario, plan) for plan in PLANS for scenario in SCENARIOS],
    ids=lambda case: "-".join(name for name in case if name),
)
def case(request):
    return request.param


# Every case runs at fault-plan seed 0; TestDeterminism varies the seed.
@pytest.mark.parametrize("seed", (0,))
class TestEquivalence:
    def test_both_paths_detect(self, case, seed):
        result = _run(*case, seed)
        assert result.detected, (
            f"batch path missed the attacker in {case} (seed {seed})"
        )
        assert result.streaming_detected, (
            f"streaming path missed the attacker in {case} (seed {seed})"
        )

    def test_recall_parity(self, case, seed):
        result = _run(*case, seed)
        drop = result.recall - result.streaming_recall
        assert drop <= RECALL_TOLERANCE, (
            f"{case} (seed {seed}): streaming recall "
            f"{result.streaming_recall:.3f} trails batch "
            f"{result.recall:.3f} by more than {RECALL_TOLERANCE}"
        )

    def test_streaming_processed_events(self, case, seed):
        result = _run(*case, seed)
        assert result.events_processed > 0
        assert result.alerts_emitted > 0

    def test_attacker_flagged_by_streaming(self, case, seed):
        result = _run(*case, seed)
        assert result.attacker_ip in result.streaming_flagged


class TestDeterminism:
    """Two identical same-seed runs → byte-identical alert streams."""

    @pytest.mark.parametrize("which", SCENARIOS)
    def test_alert_stream_byte_identical(self, which):
        first = _run.__wrapped__(which)
        second = _run.__wrapped__(which)
        assert first.alert_stream_json == second.alert_stream_json
        assert first.alert_stream_digest == second.alert_stream_digest
        assert len(first.alert_stream_json) > 2  # non-empty stream

    def test_different_seeds_still_detect(self):
        # Determinism must not come from ignoring the seed entirely: the
        # stochastic plan's seed reaches the alert stream.
        first = _run("portscan", "noisy-southbound", seed=21)
        second = _run("portscan", "noisy-southbound", seed=22)
        assert first.alert_stream_digest != second.alert_stream_digest
        assert first.streaming_detected and second.streaming_detected
