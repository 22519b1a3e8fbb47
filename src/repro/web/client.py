"""urllib2-style probe clients and the Figure 10/11 delay histograms.

The paper's delay-distribution experiment replaces httperf with Python
programs on 30 Dell machines that repeatedly issue single requests —
one fresh TCP connection per request, no keep-alive.  That detail is
what produces Figure 11: at ~6000 req/s the 2 Dell web servers see
~3000 new connections per second each, exhausting the ephemeral-port
pool faster than TIME_WAIT recycles it, so SYNs drop and clients block
in the kernel's 1 s / 2 s / 4 s retransmission schedule — the histogram
spikes at 1, 3 and 7 seconds.  The 24 Edison web servers each see only
~250 connections/s and never block this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim import AnyOf
from . import params as P
from .deployment import WebServiceDeployment
from .nodes import SYN_RETRY_DELAYS, WebServerNode


@dataclass
class ProbeLog:
    """Client-side delay samples from the probe fleet."""

    delays_s: List[float]
    give_ups: int = 0

    def histogram(self, bin_width_s: float = 0.25,
                  max_s: float = 8.0) -> List[Tuple[float, int]]:
        """Counts per delay bin, as (bin_start_seconds, count) pairs."""
        if bin_width_s <= 0:
            raise ValueError("bin_width_s must be > 0")
        bins = int(round(max_s / bin_width_s))
        counts = [0] * bins
        for delay in self.delays_s:
            index = min(bins - 1, int(delay / bin_width_s))
            counts[index] += 1
        return [(i * bin_width_s, counts[i]) for i in range(bins)]

    def mean(self) -> float:
        if not self.delays_s:
            raise ValueError("no samples collected")
        return sum(self.delays_s) / len(self.delays_s)

    def fraction_above(self, threshold_s: float) -> float:
        if not self.delays_s:
            raise ValueError("no samples collected")
        over = sum(1 for d in self.delays_s if d >= threshold_s)
        return over / len(self.delays_s)


class UrllibProbe:
    """Open-loop single-request clients (one connection per request)."""

    def __init__(self, deployment: WebServiceDeployment,
                 total_rate_rps: float, collect_after: float = 0.0):
        if total_rate_rps <= 0:
            raise ValueError("total_rate_rps must be > 0")
        self.deployment = deployment
        self.total_rate = total_rate_rps
        self.collect_after = collect_after
        self.log = ProbeLog(delays_s=[])
        self._rng = deployment.rng.stream("urllib")

    def start(self, until: float) -> None:
        self.deployment.sim.process(self._generate(until), name="urllib")

    def _generate(self, until: float):
        sim = self.deployment.sim
        webs = self.deployment.web_nodes
        clients = self.deployment.client_names
        count = 0
        while sim.now < until:
            yield sim.timeout(self._rng.expovariate(self.total_rate))
            web = self._rng.choice(webs)       # "random web servers"
            client = clients[count % len(clients)]
            count += 1
            sim.process(self._request(client, web))

    def _request(self, client: str, web: WebServerNode):
        sim = self.deployment.sim
        start = sim.now
        attempt = 0
        while not web.try_accept():
            if attempt >= len(SYN_RETRY_DELAYS):
                if sim.now >= self.collect_after:
                    self.log.give_ups += 1
                    telemetry = self.deployment.telemetry
                    if telemetry is not None:
                        # A give-up exists only here at the client; no
                        # server log will ever scrape it into the SLO.
                        telemetry.note_client_outcomes(give_ups=1)
                return
            yield sim.timeout(SYN_RETRY_DELAYS[attempt])
            attempt += 1
        yield sim.timeout(
            self.deployment.cluster.topology.rtt(client, web.server.name))
        epoch = web.epoch
        try:
            yield from self.deployment.cluster.topology.message(
                client, web.server.name, self.deployment.workload.request_bytes)
            handler = sim.process(web.handle_call(client))
            timer = sim.timeout(self.deployment.workload.client_timeout_s)
            yield AnyOf(sim, [handler, timer])
            if handler.processed:
                # The race is settled: leave a tombstone, not a live
                # 10 s entry that outlasts a Figure 10/11 run.
                timer.cancel()
                if handler.value.ok and sim.now >= self.collect_after:
                    self.log.delays_s.append(sim.now - start)
        finally:
            web.close_connection(epoch)


def delay_distribution(platform: str, total_rate_rps: float = 6000.0,
                       duration: float = 8.0,
                       warmup: float = 2.0) -> ProbeLog:
    """Run the Figure 10/11 experiment for one platform (20 % images,
    93 % hit ratio)."""
    workload = P.WebWorkload(image_fraction=0.20, cache_hit_ratio=0.93)
    deployment = WebServiceDeployment(platform, "full", workload)
    for node in deployment.web_nodes:
        node.record_log_enabled = False   # keep memory bounded
    probe = UrllibProbe(deployment, total_rate_rps, collect_after=warmup)
    probe.start(until=duration)
    deployment.meter.start(until=duration)
    deployment.sim.run(until=duration)
    return probe.log
