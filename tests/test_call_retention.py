"""Ratchet: a web node keeps no log of its finished calls.

Each :class:`~repro.web.nodes.CallRecord` goes to the node's observers
and nowhere else.  With telemetry attached, a scrape agent buffers the
calls its node finished since its last scrape, so at most that many
finished records are alive when the run stops; with no consumer, none
are.  A record counts as finished once its ``total_s`` is set (every
call takes time on the wire); an in-flight call's record is its
handler's own.
"""

import gc
from collections import Counter

from repro.telemetry import Telemetry
from repro.web import WebServiceDeployment
from repro.web.nodes import CallRecord


def live_finished_records():
    return sum(1 for obj in gc.get_objects()
               if type(obj) is CallRecord and obj.total_s > 0)


def run_level(telemetry=None):
    # Free what earlier runs left in cycles, so only this run counts.
    gc.collect()
    deployment = WebServiceDeployment("edison", "1/8", seed=7)
    if telemetry is not None:
        telemetry.attach_web(deployment)
    finished = Counter()
    for node in deployment.web_nodes:
        def count(record, name=node.server.name):
            finished[name] += 1
        node.observers.append(count)
    level = deployment.run_level(24, duration=2.0, warmup=0.5)
    assert level.ok_calls > 1000
    return deployment, finished     # the run stays referenced


def test_telemetry_holds_only_the_calls_since_its_last_scrape():
    telemetry = Telemetry()
    _deployment, finished = run_level(telemetry)
    scraped = {labels["node"]: int(series.values[-1]) for labels, series
               in telemetry.db.select("web_requests_total")}
    assert sorted(scraped) == sorted(finished)
    unscraped = sum(finished[node] - scraped[node] for node in finished)
    assert 0 < unscraped < sum(finished.values()) / 4
    assert live_finished_records() <= unscraped


def test_no_consumer_holds_no_finished_call():
    _deployment, finished = run_level()
    assert sum(finished.values()) > 1000
    assert live_finished_records() == 0
