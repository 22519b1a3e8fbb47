"""Calibrated cost model for the LLMP web stack (Section 5.1).

All service costs are in *million instructions* (MI) so the hardware
profiles' measured DMIPS convert them to per-platform time.  The
calibration anchors, each tied to a paper observation:

* Low-load response delay: ~9 ms on Edison vs ~1.6 ms on Dell (Table 7
  totals at 480 req/s) fixes the per-request CPU budgets.
* Peak utilisation (Section 5.1.2, 20 % images): 86 % CPU on Edison web
  servers at ~290 req/s each, and 45 % on Dell web servers at
  ~3500 req/s each.  Note the Dell's per-request budget is *larger* in
  MI — at thousands of requests per second per node, kernel TCP work,
  context switches and FastCGI hand-offs dominate, and the paper itself
  stresses that the measured capability gap (~100x) exceeds nameplate.
* Table 7's database-delay column fixes the MySQL client/server split.
* The port-pool and TIME_WAIT values generate Figure 11's 1/3/7 s SYN
  retransmission spikes on the Dell cluster (Section 5.1.2's analysis)
  while leaving the 24-server Edison web tier unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core import paperdata as paper


@dataclass(frozen=True)
class ServiceCosts:
    """Per-platform CPU costs (MI) of the web-serving code path."""

    #: lighttpd + PHP work to parse a request and build a reply.
    request_base_mi: float
    #: additional CPU per KB of reply (kernel copies, PHP string work).
    per_reply_kb_mi: float
    #: client-side memcached marshalling per lookup (on the web server).
    cache_client_mi: float
    #: client-side MySQL work per miss (connect + query + row decode).
    db_client_mi: float
    #: cost of emitting a 500 error page.
    error_mi: float = 0.2


#: Derivations (see module docstring):
#:   Edison 9 ms low-load total with 2.4 ms cache leg -> ~3.7 MI base;
#:   86 % CPU at 290 req/s/server -> base + per-KB * 10 KB ~= 4.5 MI.
#:   Dell 45 % CPU at ~3500 req/s/server -> ~16 MI effective per request.
EDISON_COSTS = ServiceCosts(
    request_base_mi=2.2, per_reply_kb_mi=0.12,
    cache_client_mi=1.5, db_client_mi=2.0)
DELL_COSTS = ServiceCosts(
    request_base_mi=11.0, per_reply_kb_mi=0.45,
    cache_client_mi=1.3, db_client_mi=1.5)

COSTS: Mapping[str, ServiceCosts] = {
    "edison": EDISON_COSTS, "dell": DELL_COSTS,
}

#: memcached CPU per GET, and MySQL CPU per query (both in MI; MySQL
#: runs on the shared Dell DB servers, 13.7 MI ~= 1.2 ms on a Xeon
#: thread — Table 7's Dell database delay minus the RTT).
CACHE_OP_MI = 0.6
DB_QUERY_MI = 13.7
#: Fraction of misses that touch the DB server's disk (image blobs not
#: in the buffer pool) and the bytes read when they do.
DB_DISK_PROBABILITY = 0.10
#: How long a PHP memcached client waits on a dead cache server before
#: treating the get as a miss (the client library's receive timeout;
#: only reachable under fault injection).
CACHE_DEAD_TIMEOUT_S = 0.05

#: Request/reply sizing.  The image-table mean reply is derived from
#: the paper's mix table: 0.9*1.5 KB + 0.1*B = 5.8 KB -> B ~= 44.5 KB,
#: consistent across the 6 %/10 %/20 % rows (~43 KB).
REQUEST_BYTES = 200.0
NON_IMAGE_REPLY_BYTES = 1500.0
IMAGE_REPLY_BYTES = 43000.0
ERROR_REPLY_BYTES = 500.0
CACHE_KEY_BYTES = 100.0
DB_QUERY_BYTES = 150.0


@dataclass(frozen=True)
class ConnectionLimits:
    """Per-web-server OS/network resource limits (Section 5.1.1 knobs)."""

    #: Concurrently established connections (FastCGI children / fds).
    max_connections: int
    #: In-flight calls before the server answers 500 (thread exhaustion).
    call_queue_limit: int
    #: Ephemeral ports available after the range expansion, and the
    #: TIME_WAIT holding period.  The physical values (~40000 ports,
    #: 60 s) are scaled down together so short simulated windows reach
    #: the same steady state; the invariant that matters is their
    #: ratio — the sustainable connection rate of ~667 conn/s/server.
    #: The 2-server Dell web tier crosses that at high concurrency and
    #: under the one-connection-per-request urllib2 probes; 24 Edison
    #: servers never do (Section 5.1.2's port-resources argument).
    port_pool: int = 1000
    #: Seconds a port lingers in TIME_WAIT after close.
    time_wait_s: float = 1.5


#: Both platforms had fd limits raised (Section 5.1.1), so established
#: connections are plentiful; what is scarce is request *processing*
#: slots.  On a 1 GB Edison only ~tens of PHP FastCGI children fit, so
#: lighttpd answers 500 once ~96 calls are in flight — the per-server
#: bound behind "maximum concurrency scales down linearly with cluster
#: size".  A 16 GB Dell runs thousands of children and instead hits the
#: ephemeral-port wall first.
LIMITS: Mapping[str, ConnectionLimits] = {
    "edison": ConnectionLimits(max_connections=1024, call_queue_limit=96),
    "dell": ConnectionLimits(max_connections=8192, call_queue_limit=4096),
}

#: Static memory reservations (fraction of RAM) while serving, taken
#: from the Section 5.1.2 peak readings.
MEMORY_RESERVATION = {
    ("edison", "web"): 0.25, ("edison", "cache"): 0.54,
    ("dell", "web"): 0.50, ("dell", "cache"): 0.40,
}

#: Tuned single-server request capacity (req/s) used to pick httperf's
#: calls-per-connection the way the paper hand-tuned it: Edison web
#: servers saturate around 290-300 req/s (CPU), Dell around 3500
#: (kernel/TCP), giving both full clusters the same ~7000 req/s peak.
PER_SERVER_CAPACITY_RPS = {"edison": 295.0, "dell": 3550.0}


def workload_factor(image_fraction: float, hit_ratio: float) -> float:
    """Throughput derating for heavier mixes.

    Calibrated so 20 % images costs ~15 % of peak (Figure 6 vs Figure 4)
    and lower hit ratios cost a few percent (Figure 5).
    """
    image_term = 1.0 / (1.0 + 0.88 * image_fraction)
    hit_term = 1.0 / (1.0 + 0.12 * (paper.S51_CACHE_HIT_RATIOS[0] - hit_ratio))
    return image_term * hit_term


#: Bounds on the calls per httperf connection the tuning rule picks.
MIN_CALLS_PER_CONNECTION = 5
MAX_CALLS_PER_CONNECTION = 40


def tuned_calls_per_connection(concurrency: float, target_rps: float) -> int:
    """The paper's per-level httperf tuning, as a reproducible rule.

    :data:`MIN_CALLS_PER_CONNECTION` reflects that httperf cannot shed
    load below a few calls per connection while keeping the reported
    concurrency at target: past the tier's capacity the offered rate
    exceeds it, which is exactly where the paper starts seeing 5xx
    errors (beyond 1024 connections/s on Edison, beyond 2048 on Dell).
    """
    if concurrency <= 0 or target_rps <= 0:
        raise ValueError("concurrency and target_rps must be > 0")
    return max(MIN_CALLS_PER_CONNECTION,
               min(MAX_CALLS_PER_CONNECTION, round(target_rps / concurrency)))


@dataclass(frozen=True)
class WebWorkload:
    """One web-service operating point."""

    image_fraction: float = 0.0
    cache_hit_ratio: float = 0.93
    client_timeout_s: float = 10.0
    request_bytes: float = REQUEST_BYTES

    def __post_init__(self):
        if not 0 <= self.image_fraction <= 1:
            raise ValueError("image_fraction must be in [0, 1]")
        if not 0 <= self.cache_hit_ratio <= 1:
            raise ValueError("cache_hit_ratio must be in [0, 1]")
