"""Ready-made cluster layouts matching the paper's testbeds."""

from __future__ import annotations

from typing import Optional

from ..core import paperdata as paper
from ..hardware import DELL_R620, EDISON, ServerSpec
from ..sim import Simulation
from .cluster import Cluster


def edison_cluster(sim: Simulation, nodes: int) -> Cluster:
    """``nodes`` Edison micro servers (the paper's testbed has 35)."""
    cluster = Cluster(sim, name="edison")
    cluster.add_many(EDISON, nodes, prefix="edison")
    return cluster


def dell_cluster(sim: Simulation, nodes: int) -> Cluster:
    """``nodes`` Dell PowerEdge R620 servers (the paper compares 3)."""
    cluster = Cluster(sim, name="dell")
    cluster.add_many(DELL_R620, nodes, prefix="dell")
    return cluster


def hadoop_cluster(sim: Simulation, platform: str, slaves: int,
                   name: Optional[str] = None,
                   edison_spec: ServerSpec = EDISON,
                   master_spec: ServerSpec = DELL_R620,
                   racks: int = 0) -> Cluster:
    """The Section 5.2 Hadoop layouts.

    Both platforms use one *unmetered* Dell master (namenode + resource
    manager); the paper found an Edison master becomes the bottleneck
    and excludes the master's steady draw from energy accounting on
    both sides.  Slaves run the datanode + node-manager.  Pass
    ``master_spec=EDISON`` to reproduce the failed all-Edison layout
    (the Edison-master ablation).

    ``racks`` splits the slaves into that many explicit rack domains
    (``<platform>-rack-0..``), each behind its own ToR uplink — the
    physical enclosure structure the durability experiments sever.
    The default 0 keeps the legacy everyone-in-one-room layout.
    """
    if platform not in ("edison", "dell"):
        raise ValueError(f"unknown platform {platform!r}")
    if slaves < 1:
        raise ValueError("need at least one slave")
    if racks < 0 or racks > slaves:
        raise ValueError("racks must be in [0, slaves]")
    cluster = Cluster(sim, name=name or f"hadoop-{platform}{slaves}")
    cluster.add(master_spec, "master", metered=False)
    slave_spec = edison_spec if platform == "edison" else DELL_R620
    if racks:
        per_rack = -(-slaves // racks)   # ceil division
        for i in range(slaves):
            cluster.add(slave_spec, f"{platform}-slave-{i}",
                        rack=f"{platform}-rack-{i // per_rack}")
    else:
        cluster.add_many(slave_spec, slaves, prefix=f"{platform}-slave")
    return cluster


def parse_custom_scale(scale: str):
    """Parse a ``"<web>x<cache>"`` layout spec, or ``None`` if not one.

    Beyond the paper's Table 6 ladders, scalability studies (and the
    kernel-scale benchmarks) drive layouts several times the paper's
    35-node ceiling; ``"48x22"`` asks for 48 web and 22 cache servers.
    """
    parts = scale.split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        return None
    web_count, cache_count = int(parts[0]), int(parts[1])
    if web_count < 1 or cache_count < 1:
        raise ValueError(f"custom scale {scale!r} needs >= 1 of each role")
    return web_count, cache_count


def hybrid_web_cluster(sim: Simulation, edison_web: int, dell_web: int,
                       cache: int) -> Cluster:
    """A mixed Edison/R620 web tier sharing one rotation.

    The autoscaling testbed: ``edison_web`` wimpy and ``dell_web``
    brawny web servers behind one capacity-weighted balancer, an
    Edison memcached tier sized like the Table 6 ladders, and the same
    shared unmetered Dell MySQL/client infrastructure as
    :func:`web_cluster`.  Edisons are named ``web-0..`` and the Dells
    continue the suffix range, so every role-by-prefix consumer (the
    telemetry scrapers, the deployment wiring) works unchanged;
    per-node platform comes from ``server.platform``.
    """
    if edison_web < 0 or dell_web < 0 or edison_web + dell_web < 1:
        raise ValueError("need at least one web server across platforms")
    if cache < 1:
        raise ValueError("need at least one cache server")
    cluster = Cluster(sim, name=f"web-hybrid-{edison_web}e{dell_web}d")
    for i in range(edison_web):
        cluster.add(EDISON, f"web-{i}")
    for i in range(dell_web):
        cluster.add(DELL_R620, f"web-{edison_web + i}")
    cluster.add_many(EDISON, cache, prefix="cache")
    for i in range(2):
        cluster.add(DELL_R620, f"db-{i}", metered=False)
    for i in range(8):
        cluster.add(DELL_R620, f"client-{i}", metered=False)
    return cluster


def web_cluster(sim: Simulation, platform: str,
                scale: str = "full") -> Cluster:
    """The Section 5.1 web-service layouts (Table 6).

    Returns a cluster whose servers are tagged by role via naming:
    ``web-*`` and ``cache-*``.  The shared MySQL tier (2 extra Dell
    R620s, used by *both* platforms and excluded from the comparison)
    is added unmetered, as are the 8 client and 8 load-balancer hosts.

    ``scale`` is a Table 6 ladder rung (``"full"``, ``"1/2"``, ...) or
    a custom ``"<web>x<cache>"`` layout for beyond-paper scaling runs.
    """
    if platform not in ("edison", "dell"):
        raise ValueError(f"unknown platform {platform!r}")
    custom = parse_custom_scale(scale)
    if custom is not None:
        web_count, cache_count = custom
        spec = EDISON if platform == "edison" else DELL_R620
    elif scale not in paper.T6_CLUSTERS:
        raise ValueError(f"unknown scale {scale!r}; choose from "
                         f"{sorted(paper.T6_CLUSTERS)} or '<web>x<cache>'")
    else:
        edison_web, edison_cache, dell_web, dell_cache = \
            paper.T6_CLUSTERS[scale]
        if platform == "edison":
            web_count, cache_count, spec = \
                edison_web, edison_cache, EDISON
        else:
            if dell_web is None:
                raise ValueError(
                    f"the paper has no Dell layout at scale {scale!r}")
            web_count, cache_count, spec = dell_web, dell_cache, DELL_R620
    cluster = Cluster(sim, name=f"web-{platform}-{scale.replace('/', 'of')}")
    cluster.add_many(spec, web_count, prefix="web")
    cluster.add_many(spec, cache_count, prefix="cache")
    # Shared, unmetered infrastructure (always brawny Dell hardware).
    for i in range(2):
        cluster.add(DELL_R620, f"db-{i}", metered=False)
    for i in range(8):
        cluster.add(DELL_R620, f"client-{i}", metered=False)
    return cluster
