"""The northbound serving tier: HTTP/JSON + Prometheus over a deployment.

The paper's Athena exposes its northbound API in-process; this package
puts that surface on the wire so external clients can poll features,
alerts, model status, flow tables, and health, and Prometheus can scrape
``/metrics`` — without perturbing the detection loop (docs/API.md).

    from repro.northbound import NorthboundAPI, make_api_server
    app = NorthboundAPI(deployment)
    server = make_api_server(app, port=8080)
    server.serve_forever()
"""

from repro.northbound.api import NorthboundAPI, http_status_for
from repro.northbound.cache import VersionedCache, make_etag
from repro.northbound.client import LocalClient, Response
from repro.northbound.server import make_api_server

__all__ = [
    "NorthboundAPI",
    "http_status_for",
    "VersionedCache",
    "make_etag",
    "LocalClient",
    "Response",
    "make_api_server",
]
