"""Northbound exposure of the streaming pipeline.

Covers ``/api/streaming/status`` (enabled and disabled views), streaming
alerts merged into ``/api/alerts``, and the long-poll contract of the
``wait``/``since`` parameters: the request drives the sim clock, returns
as soon as new alerts land, is clamped to ``MAX_ALERT_WAIT``, and is
never served from (or stored into) the response cache.
"""

import pytest

from repro import telemetry
from repro.ml.online import SlidingWindowDetector
from repro.northbound import LocalClient, NorthboundAPI
from repro.northbound.api import MAX_ALERT_WAIT
from repro.scenarios import build_stack, portscan_traffic


@pytest.fixture(scope="module")
def stack():
    telemetry.configure(enabled=True)
    stack = build_stack()
    stack.athena.enable_streaming().detectors.register_detector(
        "portscan_fanout",
        SlidingWindowDetector(column=0, threshold=10.0, window=16, min_hits=1),
        features=["SRC_FLOW_FANOUT"],
        cooldown=0.5,
    )
    portscan_traffic(stack)
    yield stack
    telemetry.reset_telemetry()


@pytest.fixture(scope="module")
def app(stack):
    return NorthboundAPI(stack.athena)


@pytest.fixture()
def client(app):
    return LocalClient(app)


def test_status_reports_disabled_without_streaming():
    client = LocalClient(NorthboundAPI(build_stack().athena))
    data = client.get("/api/streaming/status").json()["data"]
    assert data == {"enabled": False}


def test_long_poll_drives_sim_until_alert(stack, client):
    assert stack.sim.now == 0.0
    body = client.get("/api/alerts", params={"wait": "8"}).json()
    assert stack.sim.now > 0.0  # the request advanced the clock
    assert body["pagination"]["total"] >= 1
    streaming = [
        row for row in body["data"] if row["alert_type"] == "streaming"
    ]
    assert streaming, "long-poll returned without a streaming alert"
    alert = streaming[0]
    assert alert["detector"] == "portscan_fanout"
    assert alert["source"] == stack.ip("h1")
    assert "alert_id" in alert and "sim_time" in alert


def test_alert_ids_are_stable_indices(client):
    body = client.get("/api/alerts").json()
    ids = [row["alert_id"] for row in body["data"]]
    assert ids == list(range(len(ids)))


def test_long_poll_since_baseline_waits_full_horizon(stack, client):
    # A baseline far above the current count: nothing can satisfy it, so
    # the request drives the clock the full (clamped) wait horizon.
    before = stack.sim.now
    client.get("/api/alerts", params={"wait": "0.5", "since": "1000000"})
    assert stack.sim.now == pytest.approx(before + 0.5)


def test_long_poll_wait_is_clamped(stack, client):
    before = stack.sim.now
    client.get("/api/alerts", params={"wait": str(MAX_ALERT_WAIT * 100),
                                      "since": "1000000"})
    assert stack.sim.now <= before + MAX_ALERT_WAIT + 1e-9


def test_wait_zero_returns_immediately(stack, client):
    before = stack.sim.now
    response = client.get("/api/alerts", params={"wait": "0"})
    assert response.status == 200
    assert stack.sim.now == before


def test_wait_requests_bypass_the_cache(app, client):
    client.get("/api/alerts", params={"wait": "0"})
    hits_before = app.cache.hits
    client.get("/api/alerts", params={"wait": "0"})
    client.get("/api/alerts", params={"wait": "0"})
    assert app.cache.hits == hits_before
    # The plain (no-wait) view still caches as usual.
    client.get("/api/alerts")
    client.get("/api/alerts")
    assert app.cache.hits > hits_before


def test_bad_wait_is_typed_400(client):
    response = client.get("/api/alerts", params={"wait": "soon"})
    assert response.status == 400
    assert response.json()["error"]["code"] == "athena.api_param"
    negative = client.get("/api/alerts", params={"wait": "-1"})
    assert negative.status == 400


def test_streaming_status_reports_pipeline_state(stack, client):
    data = client.get("/api/streaming/status").json()["data"]
    assert data["enabled"] is True
    assert data["events_processed"] > 0
    assert data["events_by_kind"].get("packet_in", 0) > 0
    assert data["alerts_emitted"] >= 1
    names = [d["name"] for d in data["detectors"]]
    assert names == ["portscan_fanout"]
    assert data["detectors"][0]["events_seen"] > 0


def test_alerts_merge_reactions_and_streaming(stack, client):
    stack.enforce_block(stack.ip("h2"))
    body = client.get("/api/alerts", params={"limit": "1000"}).json()
    kinds = {row["alert_type"] for row in body["data"]}
    assert kinds == {"reaction", "streaming"}
    # Reactions sort first: the combined stream is reactions then
    # streaming alerts, each block in emission order.
    types = [row["alert_type"] for row in body["data"]]
    assert types.index("streaming") == types.count("reaction")


def test_detector_registration_moves_state_version(stack, app, client):
    first = client.get("/api/streaming/status")
    stack.athena.streaming.detectors.register_detector(
        "late_probe",
        SlidingWindowDetector(column=0, threshold=1e9, window=4, min_hits=1),
        features=["FLOW_PACKET_COUNT"],
    )
    second = client.get("/api/streaming/status")
    assert second.etag != first.etag
    assert [d["name"] for d in second.json()["data"]["detectors"]] == [
        "portscan_fanout", "late_probe",
    ]
    stack.athena.streaming.detectors.unregister_detector("late_probe")
