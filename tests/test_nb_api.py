"""Northbound serving tier: routes, caching, errors, and error codes."""

import pytest

from repro import errors, telemetry
from repro.northbound import (
    LocalClient,
    NorthboundAPI,
    VersionedCache,
    http_status_for,
    make_etag,
)
from repro.scenarios import build_demo_stack


@pytest.fixture(scope="module")
def stack():
    telemetry.configure(enabled=True)
    demo = build_demo_stack(horizon=5.0)
    demo.run(until=5.0)
    demo.enforce_block()
    yield demo
    telemetry.reset_telemetry()


@pytest.fixture()
def client(stack):
    return LocalClient(NorthboundAPI(stack.athena))


# -- error codes (the repro.errors contract) --------------------------------


def _error_classes():
    return [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type)
        and issubclass(obj, errors.ReproError)
    ]


def test_every_error_class_has_a_code():
    for cls in _error_classes():
        assert isinstance(cls.code, str) and cls.code, cls.__name__


def test_error_codes_are_unique():
    codes = [cls.code for cls in _error_classes()]
    assert len(codes) == len(set(codes))


def test_error_codes_mirror_the_class_hierarchy():
    # A subclass's code must extend its nearest repro base's code with a
    # dot — clients can prefix-match (``db.`` catches every DB failure).
    for cls in _error_classes():
        if cls is errors.ReproError:
            continue
        base = next(
            parent for parent in cls.__mro__[1:]
            if issubclass(parent, errors.ReproError)
        )
        if base is errors.ReproError:
            assert "." not in cls.code
        else:
            assert cls.code.startswith(base.code + "."), (
                f"{cls.__name__}.code={cls.code!r} does not extend "
                f"{base.__name__}.code={base.code!r}"
            )


def test_http_status_mapping():
    assert http_status_for(errors.QueryError("bad")) == 400
    assert http_status_for(errors.FeatureError("bad")) == 400
    assert http_status_for(errors.ReactionError("bad")) == 400
    assert http_status_for(errors.ShardDownError(0)) == 503
    assert http_status_for(errors.AllShardsDownError()) == 503
    assert http_status_for(errors.SimulationError("bad")) == 500


# -- cache unit behaviour ----------------------------------------------------


def test_versioned_cache_hit_miss_and_eviction():
    version = [0]
    cache = VersionedCache(lambda: version[0], max_entries=2)
    assert cache.get("a", cache.version()) is None
    cache.put("a", 0, "200 OK", [], b"x")
    assert cache.get("a", 0).body == b"x"
    version[0] = 1  # version moves: stale entry must not serve
    assert cache.get("a", cache.version()) is None
    cache.put("b", 1, "200 OK", [], b"y")
    cache.put("c", 1, "200 OK", [], b"z")  # evicts FIFO-oldest ("a")
    assert cache.evictions == 1
    assert len(cache) == 2


def test_etag_is_deterministic_and_strong():
    first = make_etag(("route", ()), (1, 2))
    assert first == make_etag(("route", ()), (1, 2))
    assert first != make_etag(("route", ()), (1, 3))
    assert first.startswith('"') and first.endswith('"')


# -- routes ------------------------------------------------------------------


def test_index_lists_every_route(client):
    data = client.get("/").json()["data"]
    paths = {row["path"] for row in data}
    assert "/api/features" in paths
    assert "/metrics" in paths


def test_status_reports_deployment_summary(client):
    data = client.get("/api/status").json()["data"]
    assert data["features_stored"] > 0
    assert data["models_generated"] >= 1
    assert "cache" in data


def test_features_pagination_and_filtering(client):
    body = client.get("/api/features", params={"limit": 3}).json()
    assert len(body["data"]) <= 3
    assert body["pagination"]["total"] >= body["pagination"]["returned"]
    flows = client.get(
        "/api/features", params={"scope": "flow", "limit": 5}
    ).json()
    assert all(doc["feature_scope"] == "flow" for doc in flows["data"])


def test_features_query_language(client):
    body = client.get(
        "/api/features",
        params={"q": "feature_scope == flow && FLOW_PACKET_COUNT > 0",
                "limit": 5},
    ).json()
    assert body["pagination"]["total"] > 0


def test_alerts_lists_enforced_reactions(client):
    body = client.get("/api/alerts").json()
    assert body["pagination"]["total"] >= 1
    assert body["data"][0]["reaction"]


def test_models_reports_validators(client):
    data = client.get("/api/models").json()["data"]
    assert data["models_generated"] >= 1
    assert data["online_validators"][0]["validated"] > 0


def test_algorithms_match_registry(client):
    from repro.ml.registry import list_algorithms

    data = client.get("/api/algorithms").json()["data"]
    assert {row["name"] for row in data} == set(list_algorithms())


def test_catalog_filters(client):
    body = client.get("/api/catalog", params={"scope": "flow"}).json()
    assert body["pagination"]["total"] > 0
    assert all(row["scope"] == "flow" for row in body["data"])


def test_switch_inventory_and_flows(client):
    switches = client.get("/api/switches").json()["data"]
    assert len(switches) == 3
    dpid = switches[0]["dpid"]
    flows = client.get(f"/api/switches/{dpid}/flows").json()
    assert flows["pagination"]["total"] == switches[0]["flows"]
    if flows["data"]:
        assert "match" in flows["data"][0]


def test_health_reports_shards(client):
    data = client.get("/api/health").json()["data"]
    assert data["status"] in ("ok", "degraded")
    assert len(data["shards"]) == 3
    assert all(shard["up"] for shard in data["shards"])


def test_metrics_prometheus_exposition(client):
    response = client.get("/metrics")
    assert response.status == 200
    assert response.header("Content-Type").startswith("text/plain")
    assert "athena_nb_api_requests_total" in response.text


# -- caching + conditional requests -----------------------------------------


def test_repeated_queries_hit_the_cache(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    client.get("/api/status")
    before = app.cache.hits
    client.get("/api/status")
    client.get("/api/status")
    assert app.cache.hits == before + 2


def test_if_none_match_returns_304(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    first = client.get("/api/features", params={"limit": 2})
    assert first.status == 200 and first.etag
    second = client.get(
        "/api/features", params={"limit": 2},
        headers={"If-None-Match": first.etag},
    )
    assert second.status == 304
    assert second.body == b""
    assert second.etag == first.etag


def test_304s_observable_in_telemetry(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    etag = client.get("/api/status").etag
    client.get("/api/status", headers={"If-None-Match": etag})
    snapshot = telemetry.get_telemetry().snapshot()
    by_name = {row["name"]: row for row in snapshot["metrics"]}
    assert by_name["athena_nb_api_not_modified_total"]["samples"]
    assert by_name["athena_nb_api_cache_hits_total"]["samples"]


def test_cache_invalidates_when_sim_state_moves(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    first = client.get("/api/status")
    stack.enforce_block("10.0.0.5")  # reactions_enforced moves the version
    second = client.get("/api/status")
    assert second.etag != first.etag
    third = client.get(
        "/api/status", headers={"If-None-Match": first.etag}
    )
    assert third.status == 200  # stale validator: full response again


def test_query_params_key_the_cache_separately(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    a = client.get("/api/features", params={"limit": 1})
    b = client.get("/api/features", params={"limit": 2})
    assert a.etag != b.etag


# -- error envelopes ---------------------------------------------------------


def test_unknown_route_is_typed_404(client):
    response = client.get("/api/nope")
    assert response.status == 404
    assert response.json()["error"]["code"] == "http.not_found"


def test_bad_query_string_is_typed_400(client):
    response = client.get("/api/features", params={"q": "FLOW_PACKET_COUNT >"})
    assert response.status == 400
    error = response.json()["error"]
    assert error["code"] == "db.query"
    assert error["error_class"] == "QueryError"


def test_bad_pagination_param_is_typed_400(client):
    response = client.get("/api/features", params={"limit": "many"})
    assert response.status == 400
    assert response.json()["error"]["code"] == "athena.api_param"


def test_unknown_switch_is_typed_400(client):
    response = client.get("/api/switches/99/flows")
    assert response.status == 400
    assert response.json()["error"]["code"] == "athena.api_param"


def test_write_methods_are_405(client):
    response = client.request("POST", "/api/status")
    assert response.status == 405
    assert response.json()["error"]["code"] == "http.method_not_allowed"


def test_shard_outage_maps_to_503(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    for shard in stack.athena.database.shards:
        stack.athena.database.fail_shard(shard.node_id)
    try:
        response = client.get("/api/features", params={"limit": 1})
        assert response.status == 503
        assert response.json()["error"]["code"] == "db.all_shards_down"
    finally:
        for shard in stack.athena.database.shards:
            stack.athena.database.recover_shard(shard.node_id)


def test_errors_are_not_cached(stack):
    app = NorthboundAPI(stack.athena)
    client = LocalClient(app)
    database = stack.athena.database
    for shard in database.shards:
        database.fail_shard(shard.node_id)
    try:
        assert client.get("/api/features", params={"limit": 9}).status == 503
    finally:
        for shard in database.shards:
            database.recover_shard(shard.node_id)
    # Same key after recovery must re-render, not replay the 503.
    assert client.get("/api/features", params={"limit": 9}).status == 200


# -- the real socket server -------------------------------------------------


def test_server_close_waits_for_inflight_responses():
    """`handle_request()` + `server_close()` (the CLI's --once mode) must
    not drop a response that is still being written: stdlib ThreadingMixIn
    only joins non-daemon handler threads, so the server tracks its own."""
    import threading
    import urllib.request

    from repro.northbound import make_api_server

    release = threading.Event()

    def slow_app(environ, start_response):
        release.wait(0.15)  # hold the response long enough to expose the race
        start_response("200 OK", [("Content-Type", "text/plain")])
        return [b"late body"]

    server = make_api_server(slow_app, port=0)
    port = server.server_address[1]
    got = {}

    def fetch():
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/", timeout=5
        ) as response:
            got["status"] = response.status
            got["body"] = response.read()

    client = threading.Thread(target=fetch, daemon=True)
    client.start()
    server.handle_request()
    server.server_close()
    # The contract: once server_close() returns, no handler thread is
    # still writing — the in-flight response has been fully sent.
    assert all(
        not thread.is_alive()
        for thread in vars(server).get("_handler_threads", [])
    )
    client.join(timeout=5)
    assert got == {"status": 200, "body": b"late body"}
