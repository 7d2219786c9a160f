"""The benchmark's workloads, by name.

Each workload class has the same shape:

* ``setup(seed)`` builds everything a round needs from the seed alone;
* ``round(state, recorder, outcome)`` runs one round, timing each
  operation through the recorder and recording checks in the outcome;
* ``finish(state, outcome)`` runs the end-of-phase checks;
* ``named_metrics(end_to_end, outcome)`` maps the generic end-to-end
  values onto the workload's own metric names for the report;
* ``min_rounds`` and ``setup_per_round`` shape the harness loop.
"""

from perfbench.workloads.batch_ddos import BatchDDoS
from perfbench.workloads.live_mixed import LiveMixed
from perfbench.workloads.nb_serve import NorthboundServe
from perfbench.workloads.stream_ingest import StreamIngest

WORKLOADS = {
    "batch_ddos": BatchDDoS,
    "live_mixed": LiveMixed,
    "nb_serve": NorthboundServe,
    "stream_ingest": StreamIngest,
}
