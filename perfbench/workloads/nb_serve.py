"""``nb_serve``: northbound reads beside writes.

Set-up builds the ``live_mixed`` stack and runs it to a warm point past the
attack start, so every route has data behind it: stored features, alerts,
blocks, a model and streaming state.  One round is one sweep: the sim
advances by a fixed 1 ms step (writes continue: traffic, polls, feature
inserts), then each of :data:`DASHBOARDS` closed-loop dashboards requests
the whole route mix through ``LocalClient``.  Each request is a timed
operation; the sim advance is not.  A sweep's first request per route
misses the version-keyed cache, so the hit share is ``1 - 1/DASHBOARDS``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from perfbench.workloads.live_mixed import build_live_stack

DASHBOARDS = 8
#: Sim time the stack runs to before serving (attacks start at 5 s).
WARM_UNTIL = 8.0
#: Sim seconds advanced between sweeps.
SWEEP_STEP = 0.001
FEATURE_QUERY = "feature_scope == flow && FLOW_PACKET_COUNT > 100"
#: The route mix one dashboard polls per sweep.
ROUTES: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("/api/status", {}),
    ("/api/features", {"limit": "50"}),
    ("/api/features", {"q": FEATURE_QUERY, "limit": "50"}),
    ("/api/alerts", {"limit": "20"}),
    ("/api/models", {}),
    ("/api/health", {}),
    ("/api/switches", {}),
    ("/api/switches/11/flows", {"limit": "50"}),
    ("/api/streaming/status", {}),
)
OK_STATUSES = (200, 304)


class _State:
    def __init__(self, stack, client) -> None:
        self.stack = stack
        self.client = client
        #: (params, body) of the last sweep's /api/features responses.
        self.feature_bodies: List[Tuple[Dict[str, str], bytes]] = []


class NorthboundServe:
    min_rounds = 1
    setup_per_round = False

    def setup(self, seed: int) -> _State:
        from repro.northbound import LocalClient, NorthboundAPI

        stack = build_live_stack(seed)
        stack.sim.run(until=WARM_UNTIL)
        client = LocalClient(NorthboundAPI(stack.athena))
        # Warm-up sweep: first-call costs stay out of the timed requests.
        for path, params in ROUTES:
            client.get(path, params=params)
        return _State(stack, client)

    def round(self, state: _State, recorder, outcome) -> None:
        sim = state.stack.sim
        sim.run(until=sim.now + SWEEP_STEP)
        client = state.client
        state.feature_bodies = []
        for _dashboard in range(DASHBOARDS):
            for path, params in ROUTES:
                recorder.start()
                response = client.get(path, params=params)
                recorder.stop()
                outcome.attempted += 1
                outcome.failed += response.status not in OK_STATUSES
                if path == "/api/features":
                    state.feature_bodies.append((params, response.body))
        outcome.units += DASHBOARDS * len(ROUTES)

    def finish(self, state: _State, outcome) -> None:
        """The last sweep's /api/features bodies must equal RequestFeatures
        for the same query, paginated the same way."""
        from repro.core.query import Query

        features = state.stack.athena.northbound
        for params, body in state.feature_bodies:
            documents = features.RequestFeatures(Query(params.get("q") or None))
            limit = int(params["limit"])
            expected = json.loads(json.dumps(documents[:limit], default=str))
            served = json.loads(body)["data"]
            outcome.check(
                served == expected,
                f"/api/features {params} differs from RequestFeatures",
            )
        outcome.gauges["feature_manager.pending_writes"] = (
            state.stack.athena.feature_manager.pending_writes
        )

    def named_metrics(self, end_to_end, outcome) -> Dict[str, float]:
        return {
            "nb_qps": end_to_end["throughput_per_s"],
            "nb_p50_us": end_to_end["latency_p50_ms"] * 1e3,
            "nb_p99_us": end_to_end["latency_p99_ms"] * 1e3,
        }
