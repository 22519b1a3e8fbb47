"""Contract tests for the causality package.

Covers context minting and propagation, forest reconstruction,
critical-path extraction (and its Table 7 oracle), per-span energy
attribution conservation, aborted-span tagging under injected faults,
exemplar determinism and the flame-graph exporters.
"""

import math

import pytest

from repro.causality import (ExemplarStore, SpanContext, attribute_energy,
                             build_forest, collapse, critical_path,
                             decomposition_from_critical_paths,
                             energy_stacks, latency_stacks, render_html,
                             self_times, write_collapsed, write_flame_html)
from repro.faults import single_node_kill
from repro.trace import (TraceEvent, TraceLog, Tracer,
                         delay_decomposition_from_trace)
from repro.web import WebServiceDeployment


def traced_web_run(seed=11, concurrency=16, duration=1.5, warmup=0.5):
    tracer = Tracer()
    deployment = WebServiceDeployment("edison", "1/8", seed=seed,
                                      trace=tracer)
    deployment.run_level(concurrency, duration=duration, warmup=warmup)
    return tracer.log, deployment


# -- SpanContext --------------------------------------------------------------

def test_span_context_validates_ids():
    SpanContext(trace_id=3, span_id=5, parent_id=2)
    SpanContext(trace_id=1, span_id=1, parent_id=0)
    with pytest.raises(ValueError):
        SpanContext(trace_id=0, span_id=1, parent_id=0)
    with pytest.raises(ValueError):
        SpanContext(trace_id=1, span_id=0, parent_id=0)
    with pytest.raises(ValueError):
        SpanContext(trace_id=1, span_id=1, parent_id=-1)


def test_tracer_mints_linked_contexts():
    tracer = Tracer()
    root = tracer.root_context()
    assert root.parent_id == 0 and root.trace_id == root.span_id
    child = tracer.child_context(root)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    # None parent mints a fresh root — convenient for optional ctx.
    other = tracer.child_context(None)
    assert other.parent_id == 0 and other.trace_id != root.trace_id


# -- forest reconstruction ----------------------------------------------------

def span(ts, dur, name, *, node="", span_id=0, parent_id=0, trace_id=0,
         category="web", attrs=None):
    return TraceEvent(ts=ts, dur=dur, phase="X", category=category,
                      name=name, node=node, attrs=attrs or {},
                      trace_id=trace_id or span_id, span_id=span_id,
                      parent_id=parent_id)


def test_build_forest_links_children_and_orphans():
    log = TraceLog()
    log.append(span(0.0, 1.0, "root", span_id=1))
    log.append(span(0.1, 0.4, "child", span_id=2, parent_id=1, trace_id=1))
    log.append(span(0.6, 0.3, "child", span_id=3, parent_id=1, trace_id=1))
    log.append(span(0.2, 0.1, "leaf", span_id=4, parent_id=2, trace_id=1))
    log.append(span(5.0, 0.5, "lost", span_id=9, parent_id=8, trace_id=8))
    log.append(TraceEvent(ts=0.0, phase="i", category="web", name="noise"))
    forest = build_forest(log)
    assert [r.name for r in forest.roots] == ["root", "lost"]
    assert [o.name for o in forest.orphans] == ["lost"]
    root = forest.roots[0]
    assert [c.span_id for c in root.children] == [2, 3]
    assert [n.name for n in root.walk()] == ["root", "child", "leaf",
                                             "child"]
    assert [a.span_id for a in forest.ancestors(4)] == [2, 1]


def test_real_web_run_yields_causal_trees():
    log, _ = traced_web_run()
    forest = build_forest(log)
    assert forest.roots
    requests = [n for n in forest.walk() if n.name == "request"]
    assert requests
    # Every request span links upward: call -> connection when the
    # connection closed inside the run, or to an orphaned call root.
    linked = 0
    for req in requests:
        names = [a.name for a in forest.ancestors(req.span_id)]
        if names[:2] == ["call", "connection"]:
            linked += 1
        req_children = {c.name for c in req.children}
        assert req_children <= {"cache", "db"}
    assert linked > 0
    # cache/db spans share their request's trace id (one trace per
    # connection).
    for req in requests:
        for child in req.children:
            assert child.trace_id == req.trace_id


# -- critical paths -----------------------------------------------------------

def test_critical_path_partitions_wall_time():
    log = TraceLog()
    log.append(span(0.0, 10.0, "root", span_id=1))
    log.append(span(1.0, 3.0, "a", span_id=2, parent_id=1, trace_id=1))
    log.append(span(3.0, 4.0, "b", span_id=3, parent_id=1, trace_id=1))
    log.append(span(2.0, 1.0, "a1", span_id=4, parent_id=2, trace_id=1))
    forest = build_forest(log)
    path = critical_path(forest.roots[0])
    # Segments tile [0, 10) exactly, in order.
    segs = sorted(path.segments, key=lambda s: s.start)
    assert segs[0].start == 0.0 and segs[-1].end == 10.0
    for left, right in zip(segs, segs[1:]):
        assert left.end == right.start
    assert math.isclose(sum(s.duration for s in segs), 10.0)
    # Sibling b overlaps a's tail [3, 4): the earlier sibling keeps it.
    def seconds(name):
        return sum(s.duration for s in segs if s.name == name)

    assert seconds("a") == pytest.approx(2.0)   # [1,2) + [3,4)
    assert seconds("a1") == pytest.approx(1.0)
    assert seconds("b") == pytest.approx(3.0)   # clipped to [4, 7)
    assert seconds("root") == pytest.approx(4.0)  # [0,1) + [7,10)
    kinds = path.by_kind()
    assert kinds["self"] == pytest.approx(4.0)    # a1 + b
    assert kinds["blocked"] == pytest.approx(6.0)  # root + a gaps
    # Two 3 s segments tie for longest; the earlier start wins.
    top = path.longest(2)
    assert [s.name for s in top] == ["b", "root"]
    assert all(s.duration == pytest.approx(3.0) for s in top)


def test_self_times_sum_to_root_duration():
    log, _ = traced_web_run()
    forest = build_forest(log)
    for root in forest.roots[:20]:
        totals = self_times(root)
        assert sum(totals.values()) == pytest.approx(root.dur)
        assert all(v >= 0.0 for v in totals.values())


def test_tree_decomposition_matches_flat_decomposition():
    log, _ = traced_web_run()
    flat = delay_decomposition_from_trace(log, after=0.5)
    tree = decomposition_from_critical_paths(log, after=0.5)
    assert tree.requests == flat.requests
    assert tree.db_delay_s == pytest.approx(flat.db_delay_s, rel=1e-9)
    assert tree.cache_delay_s == pytest.approx(flat.cache_delay_s, rel=1e-9)
    assert tree.total_delay_s == pytest.approx(flat.total_delay_s, rel=1e-9)
    assert tree.connect_delay_s == pytest.approx(flat.connect_delay_s,
                                                 rel=1e-9)


def test_decomposition_raises_without_requests():
    with pytest.raises(ValueError):
        decomposition_from_critical_paths(TraceLog())


# -- energy attribution -------------------------------------------------------

def power_counter(ts, watts, node):
    return TraceEvent(ts=ts, phase="C", category="power",
                      name="meter.node_power_w", node=node,
                      attrs={"value": watts})


def test_synthetic_energy_attribution_is_exact():
    # Node at 10 W idle; one span [1, 3) while power is 16 W.
    log = TraceLog()
    for t in (0.0, 1.0, 2.0, 3.0, 4.0):
        log.append(power_counter(t, 16.0 if 1.0 <= t <= 3.0 else 10.0,
                                 "n0"))
    log.append(span(1.0, 2.0, "work", node="n0", span_id=1))
    attribution = attribute_energy(log, idle_w={"n0": 10.0})
    acct = attribution.nodes["n0"]
    # Trapezoids: 13 + 16 + 16 + 13 over the four unit intervals.
    assert acct.metered_j == pytest.approx(58.0)
    assert acct.baseline_j == pytest.approx(40.0)
    # Marginal inside [1, 3) goes to the span (6 + 6 J); the ramps
    # outside it ([0,1) and [3,4)) have no resident -> unattributed.
    assert acct.by_span[1] == pytest.approx(12.0)
    assert acct.unattributed_j == pytest.approx(6.0)
    assert acct.conservation_error_rel < 1e-12
    assert sum(a.by_span.get(1, 0.0) for a in attribution.nodes.values()) \
        == pytest.approx(12.0)


def test_marginal_watts_split_across_residents_not_ancestors():
    log = TraceLog()
    for t in (0.0, 1.0, 2.0):
        log.append(power_counter(t, 20.0, "n0"))
    # Parent covers the window; child is resident for the first half.
    log.append(span(0.0, 2.0, "parent", node="n0", span_id=1))
    log.append(span(0.0, 1.0, "child", node="n0", span_id=2,
                    parent_id=1, trace_id=1))
    attribution = attribute_energy(log, idle_w={"n0": 10.0})
    acct = attribution.nodes["n0"]
    # First half's 10 J of marginal goes to the child alone (deepest
    # resident); second half's to the parent.
    assert acct.by_span[2] == pytest.approx(10.0)
    assert acct.by_span[1] == pytest.approx(10.0)
    assert acct.unattributed_j == pytest.approx(0.0)


def test_real_run_energy_conserves_per_node():
    log, deployment = traced_web_run()
    idle = {server.name: server.spec.power.min_w
            for server in deployment.cluster.servers.values()}
    attribution = attribute_energy(log, idle_w=idle)
    assert attribution.nodes
    meter = deployment.cluster.meter
    for name, acct in attribution.nodes.items():
        assert acct.conservation_error_rel <= 1e-3
        assert acct.metered_j == pytest.approx(
            meter.node_energy_joules(name), rel=1e-9)
    assert sum(acct.attributed_j
               for acct in attribution.nodes.values()) > 0.0
    # Rolling up per-trace totals loses nothing that was attributed to
    # spans reachable from a root.
    forest = build_forest(log)
    per_trace = attribution.by_trace(forest)
    assert sum(per_trace.values()) == pytest.approx(
        sum(acct.attributed_j for acct in attribution.nodes.values()))


# -- aborted spans under faults -----------------------------------------------

def test_crash_mid_request_closes_spans_as_aborted():
    tracer = Tracer()
    deployment = WebServiceDeployment("edison", "1/8", seed=11,
                                      trace=tracer)
    deployment.attach_faults(single_node_kill("web-0", 0.6))
    deployment.run_level(16, duration=1.5, warmup=0.25)
    forest = build_forest(tracer.log)
    aborted = [n for n in forest.walk() if n.aborted is not None]
    assert aborted, "the crash left no aborted spans"
    kinds = {n.aborted for n in aborted}
    assert "crash" in kinds
    # Aborted spans are closed: finite duration, still inside trees.
    for node in aborted:
        assert node.dur >= 0.0
        assert node.end <= 2.0


# -- exemplars ----------------------------------------------------------------

def test_exemplar_store_keeps_worst_per_bucket():
    store = ExemplarStore()
    store.observe(0.010, trace_id=1)
    store.observe(0.011, trace_id=2)   # worse, nearby bucket or same
    store.observe(0.500, trace_id=3)
    store.observe(0.500, trace_id=4)   # tie: first seen wins
    store.observe(0.0, trace_id=5)     # underflow bucket
    store.observe(1.0, trace_id=0)     # no identity: ignored
    assert store.worst().trace_id == 3
    values = [ex.value for ex in store.exemplars()]
    assert values == sorted(values)
    assert all(ex.trace_id > 0 for ex in store.exemplars())
    # Round-trips through plain dicts.
    clone = ExemplarStore.from_dict(store.to_dict())
    assert clone.to_dict() == store.to_dict()
    assert clone.worst() == store.worst()


# -- flame graphs -------------------------------------------------------------

def test_collapsed_stacks_weigh_self_time():
    log = TraceLog()
    log.append(span(0.0, 10.0, "root", node="n0", span_id=1))
    log.append(span(2.0, 4.0, "leg", node="n1", span_id=2, parent_id=1,
                    trace_id=1))
    forest = build_forest(log)
    stacks = collapse(forest)
    assert stacks == {"root@n0": 6_000_000, "root@n0;leg@n1": 4_000_000}
    weighted = energy_stacks(forest, {2: 0.25})
    assert weighted == {"root@n0;leg@n1": 250_000}


def test_flame_outputs_are_deterministic(tmp_path):
    log, _ = traced_web_run()
    stacks = latency_stacks(build_forest(log))
    assert stacks
    first = render_html(stacks, title="t", unit="µs")
    assert first == render_html(stacks, title="t", unit="µs")
    assert "<svg" in first and "connection" in first
    collapsed = tmp_path / "flame.txt"
    write_collapsed(str(collapsed), stacks)
    lines = collapsed.read_text().splitlines()
    assert len(lines) == len(stacks)
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack in stacks and int(count) == stacks[stack]
    html_path = tmp_path / "flame.html"
    write_flame_html(str(html_path), stacks)
    assert html_path.read_text().startswith("<!DOCTYPE html>")
