"""Tests for repro.trace: events, spans, metrics, exporters, oracle."""

import gc
import json
import random
import tracemalloc
import types
from collections import deque

import pytest

from repro.cluster import hadoop_cluster
from repro.mapreduce import JOB_FACTORIES, JobRunner, run_job
from repro.mapreduce.config import default_config
from repro.mapreduce.yarn import YarnScheduler
from repro.sim import Simulation, TimeSeries, periodic_sampler
from repro.trace import (Counter, Gauge, Histogram, MetricsRegistry,
                         PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN,
                         TraceEvent, TraceLog, Tracer,
                         delay_decomposition_from_trace,
                         to_chrome_trace, write_chrome_trace, write_csv,
                         write_jsonl)
from repro.web import WebServiceDeployment, measure_delay_decomposition


# -- TraceLog -----------------------------------------------------------------

def test_log_category_filtering():
    log = TraceLog(categories={"web"})
    assert log.append(TraceEvent(ts=0.0, category="web", name="a"))
    assert not log.append(TraceEvent(ts=1.0, category="resource", name="b"))
    assert len(log) == 1
    assert log.filtered == 1
    assert log.accepts("web") and not log.accepts("resource")


def test_log_ring_buffer_bounds_memory():
    log = TraceLog(max_events=100)
    for i in range(250):
        log.append(TraceEvent(ts=float(i), category="c", name="e"))
    assert len(log) == 100
    assert log.accepted == 250
    assert log.evicted == 150
    # The ring keeps the most recent events.
    assert [e.ts for e in log] == [float(i) for i in range(150, 250)]


def test_log_empty_category_filter_keeps_nothing():
    log = TraceLog(categories=[])
    assert not log.accepts("web")
    assert not log.append(TraceEvent(ts=0.0, category="web", name="a"))
    assert len(log) == 0 and log.filtered == 1 and log.accepted == 0
    tracer = Tracer(categories=())
    tracer.complete("s", 0.0)
    tracer.instant("i")
    tracer.counter("c", 2.0)
    assert len(tracer.log) == 0
    assert tracer.log.filtered == 3
    # Metrics still count the events the filter dropped.
    snap = tracer.metrics.snapshot()
    assert snap["s.count"] == 1 and snap["i.count"] == 1 and snap["c"] == 2.0
    assert snap["s.duration_s"]["count"] == 1


@pytest.mark.parametrize("max_events,categories", [
    (None, None), (40, None), (None, {"web", "event"}),
    (40, {"web", "counter"}), (None, ())])
def test_metrics_fold_matches_an_eagerly_fed_registry(max_events,
                                                      categories):
    # The tracer folds its metrics from the log's rows when they are
    # read; a registry fed at every emission must read the same, float
    # for float and in the same key order, whatever the ring buffer
    # trims, the filter drops or TraceLog.append slips in between.
    rng = random.Random(20160901)
    tracer = Tracer(max_events=max_events, categories=categories)
    clock = types.SimpleNamespace(_now=0.0)
    tracer.bind(clock)
    reference = MetricsRegistry()
    names = ("request", "cache", "db", "boot")
    reads = 0
    for seq in range(3000):
        clock._now += rng.choice((0.0, rng.expovariate(50.0)))
        name = rng.choice(names)
        category = rng.choice(("web", "kernel", "event", "counter"))
        attrs = {key: seq for key in rng.sample(("req", "status", "k"),
                                                rng.randrange(3))}
        kind = rng.randrange(10)
        if kind < 5:
            start = clock._now * rng.random()
            ctx = tracer.root_context() if kind == 0 else None
            tracer.complete(name, start, category=category, ctx=ctx,
                            **attrs)
            reference.counter(f"{name}.count").inc()
            reference.histogram(f"{name}.duration_s").observe(
                clock._now - start)
        elif kind < 7:
            tracer.instant(name, category=category, **attrs)
            reference.counter(f"{name}.count").inc()
        elif kind < 9:
            value = rng.choice((seq, rng.uniform(0.0, 9.0)))
            tracer.counter(name, value, category=category, **attrs)
            reference.gauge(name).set(value)
        else:
            tracer.log.append(TraceEvent(ts=clock._now, category=category,
                                         name=name, attrs=attrs,
                                         phase=PHASE_SPAN, dur=1.0))
        if rng.random() < 0.01:
            list(tracer.log)
        if rng.random() < 0.005:
            reads += 1
            assert list(tracer.metrics.snapshot().items()) == \
                list(reference.snapshot().items())
    assert reads > 5
    assert list(tracer.metrics.snapshot().items()) == \
        list(reference.snapshot().items())
    assert json.dumps(tracer.metrics.snapshot()) == \
        json.dumps(reference.snapshot())


def test_bounded_log_interleaves_appends_and_emissions_across_trims():
    cap = 100
    # The filter drops the kernel's own calendar instant.
    tracer = Tracer(max_events=cap,
                    categories={"c", "s", "event", "counter"})
    sim = Simulation(trace=tracer)
    sim.run(until=5.0)
    log = tracer.log
    expected = deque(maxlen=cap)
    for seq in range(1000):
        kind = seq % 4
        if kind == 0:
            event = TraceEvent(ts=1.0, category="c", name="appended",
                               attrs={"seq": seq})
            log.append(event)
        elif kind == 1:
            tracer.complete("span", 2.0, category="s", node="n", seq=seq)
            event = TraceEvent(ts=2.0, category="s", name="span", node="n",
                               attrs={"seq": seq}, phase=PHASE_SPAN, dur=3.0)
        elif kind == 2:
            tracer.instant("mark", seq=seq)
            event = TraceEvent(ts=5.0, category="event", name="mark",
                               attrs={"seq": seq}, phase=PHASE_INSTANT)
        else:
            tracer.counter("depth", float(seq), seq=seq)
            event = TraceEvent(ts=5.0, category="counter", name="depth",
                               attrs={"seq": seq, "value": float(seq)},
                               phase=PHASE_COUNTER)
        expected.append(event)
        assert len(log) == len(expected)
        assert log.accepted == seq + 1
        assert log.evicted == seq + 1 - len(expected)
        if seq % 37 == 0 or seq >= 990:
            assert list(log) == list(expected)
        # Trimming happens in chunks, but the columns stay bounded.
        assert max(len(column) for column in log._columns) <= 2 * cap + 64
    assert log.evicted == 900
    assert [e.attrs["seq"] for e in log] == list(range(900, 1000))
    assert [e.attrs["seq"] for e in log.spans()] == \
        [s for s in range(900, 1000) if s % 4 == 1]


def _tracked_reachable(root):
    """GC-tracked objects reachable from ``root``, not counting classes
    and modules (every instance reaches its class, and from there the
    whole interpreter)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if (gc.is_tracked(ref) and id(ref) not in seen
                    and not isinstance(ref, (type, types.ModuleType))):
                seen.add(id(ref))
                stack.append(ref)
    return len(seen)


def test_log_gc_footprint_does_not_grow_with_span_count():
    def tracked_after(spans):
        tracer = Tracer()
        for i in range(spans):
            tracer.complete("request", 0.0, category="web", node="web-0",
                            req=i, status=200)
        assert len(tracer.log) == spans
        return _tracked_reachable(tracer.log)

    assert tracked_after(1_000) == tracked_after(100_000)


@pytest.mark.parametrize("attrs,bound", [(False, 60), (True, 120)])
def test_log_retained_bytes_per_row(attrs, bound):
    # A row keeps six 8-byte slots (its interned shape, ts, dur and the
    # three ids), one slot per attr value and the value itself (a boxed
    # ``req`` int here); no boxed ``dur``, no per-row attrs dict: about
    # 49 and 97 bytes.
    rows = 100_000
    tracer = Tracer()
    tracer.complete("request", 0.0, category="web", node="web-0",
                    req=0, status=200)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(rows):
            if attrs:
                tracer.complete("request", 0.0, category="web",
                                node="web-0", req=i, status=200)
            else:
                tracer.complete("request", 0.0, category="web",
                                node="web-0")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer.log) == rows + 1
    assert retained / rows <= bound


def test_bounded_log_keeps_mixed_attr_widths_across_trims():
    cap = 50
    tracer = Tracer(max_events=cap)
    log = tracer.log
    expected = deque(maxlen=cap)
    for seq in range(2000):
        width = seq % 5
        if width == 4:
            # counter() appends its "value" after the caller's attrs.
            tracer.counter("depth", float(seq), seq=seq, tag="q")
            expected.append({"seq": seq, "tag": "q", "value": float(seq)})
            continue
        attrs = {key: seq + i for i, key in
                 enumerate(("z", "a", "m")[:width])}
        if seq % 2:
            tracer.complete("span", 0.0, **attrs)
        else:
            tracer.instant("mark", **attrs)
        expected.append(attrs)
        if seq % 97 == 0 or seq >= 1990:
            assert [list(e.attrs.items()) for e in log] == \
                [list(a.items()) for a in expected]
    assert log.evicted == 2000 - cap
    assert [list(e.attrs.items()) for e in log.counters()] == \
        [list(a.items()) for a in expected if "value" in a]


def test_log_reads_return_fresh_attrs():
    tracer = Tracer()
    emitted = {"req": 7, "status": 200}
    tracer.complete("request", 0.0, category="web", **emitted)
    event = TraceEvent(ts=0.0, category="c", name="e", attrs={"k": [1]})
    tracer.log.append(event)
    event.attrs["k2"] = 2
    first = tracer.log.events()
    first[0].attrs["status"] = 500
    first[1].attrs.clear()
    tracer.log.spans()[0].attrs["extra"] = 1
    for read in (list(tracer.log), tracer.log.events()):
        assert read[0].attrs == emitted
        assert read[1].attrs == {"k": [1]}
        # Value objects are the emitted ones, not copies.
        assert read[1].attrs["k"] is event.attrs["k"]
    assert list(tracer.log)[0].attrs is not list(tracer.log)[0].attrs


def test_log_read_back_types():
    tracer = Tracer()
    sim = Simulation(trace=tracer)
    sim.run(until=3.0)
    tracer.complete("int-start", 1, ctx=tracer.root_context())
    tracer.log.append(TraceEvent(ts=2, category="c", name="int-ts", dur=1,
                                 phase=PHASE_SPAN, trace_id=5, span_id=6,
                                 parent_id=5))
    for event in tracer.log:
        assert type(event.ts) is float and type(event.dur) is float
        assert all(type(v) is int for v in
                   (event.trace_id, event.span_id, event.parent_id))
    [span] = tracer.log.spans(name="int-start")
    assert (span.ts, span.dur) == (1.0, 2.0)
    [appended] = tracer.log.spans(name="int-ts")
    assert (appended.ts, appended.dur, appended.span_id) == (2.0, 1.0, 6)
    with pytest.raises(ValueError):
        TraceEvent(ts=0.0, category="c", name="e", span_id=2 ** 63)


def test_log_rejects_bad_arguments():
    with pytest.raises(ValueError):
        TraceLog(max_events=0)
    with pytest.raises(ValueError):
        TraceEvent(ts=-1.0, category="c", name="e")
    with pytest.raises(ValueError):
        TraceEvent(ts=0.0, category="c", name="e", phase="Z")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_event_rejects_non_finite_times(bad):
    with pytest.raises(ValueError):
        TraceEvent(ts=bad, category="c", name="e")
    with pytest.raises(ValueError):
        TraceEvent(ts=0.0, category="c", name="e", phase=PHASE_SPAN, dur=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 -1.0, 5.0])
def test_complete_rejects_bad_start(bad):
    tracer = Tracer()
    sim = Simulation(trace=tracer)
    sim.run(until=2.0)
    before = len(tracer.log)
    with pytest.raises(ValueError):
        tracer.complete("x", start=bad)
    assert len(tracer.log) == before
    assert "x.count" not in tracer.metrics.snapshot()
    tracer.complete("x", start=0.5)
    assert tracer.log.spans(name="x")[0].dur == 1.5


# -- Tracer & spans -----------------------------------------------------------

def test_complete_rejects_future_start():
    tracer = Tracer()
    Simulation(trace=tracer)
    with pytest.raises(ValueError):
        tracer.complete("x", start=5.0)


def test_kernel_emits_process_spans_and_calendar_stats():
    tracer = Tracer()
    sim = Simulation(trace=tracer)

    def worker():
        yield sim.timeout(2.5)

    sim.process(worker(), name="w")
    sim.run()
    spans = tracer.log.spans(category="kernel", name="process:w")
    assert len(spans) == 1
    assert spans[0].dur == pytest.approx(2.5)
    stats = tracer.log.events(category="kernel", name="calendar")
    assert stats and stats[-1].attrs["scheduled"] >= 1
    assert stats[-1].attrs["processed"] >= 1


def test_process_spans_share_one_name_string():
    tracer = Tracer()
    sim = Simulation(trace=tracer)

    def worker():
        yield sim.timeout(1.0)

    for _ in range(3):
        sim.process(worker(), name="handle_call")
    sim.run()
    spans = tracer.log.spans(category="kernel")
    assert [s.name for s in spans] == ["process:handle_call"] * 3
    assert spans[0].name is spans[1].name is spans[2].name


# -- metrics ------------------------------------------------------------------

def test_counter_and_gauge():
    counter, gauge = Counter("c"), Gauge("g")
    for _ in range(5):
        counter.inc()
    gauge.set(3.5)
    gauge.add(-1.0)
    assert counter.value == 5
    assert gauge.value == 2.5


def test_histogram_percentile_against_brute_force():
    rng = random.Random(42)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
    hist = Histogram()
    for value in values:
        hist.observe(value)
    ordered = sorted(values)
    for p in (1, 25, 50, 90, 95, 99, 100):
        import math
        exact = ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
        estimate = hist.percentile(p)
        # The log-bucketed estimate is within one bucket of the exact
        # order statistic: a relative factor of at most ``growth``.
        assert exact / 1.08 <= estimate <= exact * 1.08, (p, exact, estimate)


def test_histogram_percentile_low_tail_clamped_to_min():
    # Regression: the geometric midpoint of the lowest occupied bucket
    # can fall below the observed minimum; low-percentile estimates
    # must be clamped into [min, max] just like the high tail.
    hist = Histogram()
    for value in (1.9, 1000.0, 1001.0, 1002.0):
        hist.observe(value)
    assert hist.percentile(0) == 1.9
    for p in (0, 1, 10, 25, 50, 90, 100):
        assert 1.9 <= hist.percentile(p) <= 1002.0


def test_histogram_percentile_monotone_in_p_property():
    # Property, seeded: for any observation set, percentile() must be
    # non-decreasing in p — the clamp into [max(low, min), min(high,
    # max)] makes this structural (bucket intervals are disjoint and
    # increasing), and a dashboard with p50 > p95 is a bug wherever
    # the estimates land inside their buckets.
    rng = random.Random(1337)
    grid = [p / 2 for p in range(0, 201)]
    for trial in range(25):
        hist = Histogram()
        count = rng.randint(1, 200)
        for _ in range(count):
            if rng.random() < 0.2:
                value = 0.0 if rng.random() < 0.5 else rng.choice(
                    [1e-12, 1e-9, 1e6, 1e9])
            else:
                value = rng.lognormvariate(0.0, 3.0)
            hist.observe(value)
        estimates = [hist.percentile(p) for p in grid]
        for p, lo, hi in zip(grid[1:], estimates, estimates[1:]):
            assert hi >= lo, (trial, p, lo, hi)


def test_histogram_edges():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.percentile(50)
    hist.observe(0.0)
    assert hist.percentile(50) == 0.0
    with pytest.raises(ValueError):
        hist.observe(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_metrics_registry_snapshot():
    registry = MetricsRegistry()
    for _ in range(7):
        registry.counter("requests").inc()
    registry.gauge("depth").set(3)
    for v in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("delay").observe(v)
    snap = registry.snapshot()
    assert snap["requests"] == 7
    assert set(snap["delay"]) == {"count", "mean", "p50", "p95"}
    assert snap["depth"] == 3
    assert snap["delay"]["count"] == 4
    assert snap["delay"]["p95"] == pytest.approx(4.0, rel=0.1)
    assert registry.counter("requests") is registry.counter("requests")
    assert registry.histogram("delay") is registry.histogram("delay")


# -- exporters ----------------------------------------------------------------

def _small_traced_run():
    tracer = Tracer()
    deployment = WebServiceDeployment("edison", "1/8", seed=11, trace=tracer)
    deployment.run_level(16, duration=1.5, warmup=0.5)
    return tracer


def test_chrome_export_is_valid_and_consistent(tmp_path):
    tracer = _small_traced_run()
    path = tmp_path / "out.json"
    write_chrome_trace(tracer.log, str(path))
    data = json.loads(path.read_text())     # golden property: valid JSON
    events = data["traceEvents"]
    assert data["displayTimeUnit"] == "ms"
    span_events = [e for e in events if e.get("ph") == "X"]
    assert span_events
    horizon = 1.5 * 1e6 * 1.01              # run length in us, with slack
    for event in span_events:
        assert set(event) >= {"name", "cat", "pid", "tid", "ts", "ph", "dur"}
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert event["ts"] + event["dur"] <= horizon
    # Every referenced tid has a thread_name metadata record.
    named = {e["tid"] for e in events
             if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert {e["tid"] for e in span_events} <= named


def test_chrome_trace_covers_three_layers():
    tracer = _small_traced_run()
    categories = {e.category for e in tracer.log}
    assert {"kernel", "resource", "web", "power"} <= categories
    chrome = to_chrome_trace(tracer.log)
    cats = {e.get("cat") for e in chrome["traceEvents"]}
    assert {"kernel", "resource", "web", "power"} <= cats


def test_jsonl_and_csv_exports(tmp_path):
    log = TraceLog()
    log.append(TraceEvent(ts=1.0, category="c", name="n", node="s0",
                          attrs={"k": 2}, phase=PHASE_SPAN, dur=0.5))
    jsonl = tmp_path / "out.jsonl"
    write_jsonl(log, str(jsonl))
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["attrs"] == {"k": 2}
    csv_path = tmp_path / "out.csv"
    write_csv(log, str(csv_path))
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("ts,")
    assert len(rows) == 2


# -- the trace as a correctness oracle ---------------------------------------

def test_table7_decomposition_rederived_from_trace():
    tracer = Tracer()
    reported = measure_delay_decomposition("edison", 480, duration=2.0,
                                           warmup=0.5, trace=tracer)
    derived = delay_decomposition_from_trace(tracer.log, after=0.5)
    assert derived.db_delay_s == pytest.approx(reported.db_delay_s,
                                               rel=0.01)
    assert derived.cache_delay_s == pytest.approx(reported.cache_delay_s,
                                                  rel=0.01)
    assert derived.total_delay_s == pytest.approx(reported.total_delay_s,
                                                  rel=0.01)
    assert derived.connect_delay_s > 0
    assert derived.requests > 0


def test_tracing_changes_no_web_numbers():
    kwargs = dict(duration=1.5, warmup=0.5)
    plain = WebServiceDeployment("edison", "1/8", seed=3).run_level(
        16, **kwargs)
    tracer = Tracer()
    traced = WebServiceDeployment("edison", "1/8", seed=3,
                                  trace=tracer).run_level(16, **kwargs)
    assert len(tracer.log) > 0
    assert traced == plain                   # bit-identical LevelResult


def test_tracing_changes_no_job_numbers():
    spec, config = JOB_FACTORIES["pi"]("edison", 4)
    plain = run_job("edison", 4, spec, config=config)
    tracer = Tracer()
    traced = JobRunner("edison", 4, config=config, trace=tracer).run(spec)
    assert traced.seconds == plain.seconds
    assert traced.joules == plain.joules
    # The traced run covers scheduler, task and power layers.
    categories = {e.category for e in tracer.log}
    assert {"yarn", "task", "power", "resource", "kernel"} <= categories
    assert tracer.log.spans(category="task", name="shuffle")
    assert tracer.log.spans(category="task", name="map-attempt")


def test_untraced_simulation_collects_no_events():
    sim = Simulation()
    assert sim.trace is None
    assert sim.calendar_stats()["scheduled"] == 0


# -- periodic sampler + tracer (satellite) ------------------------------------

def test_periodic_sampler_feeds_trace_timeline():
    tracer = Tracer()
    sim = Simulation(trace=tracer)
    series = TimeSeries("probe")
    sim.process(periodic_sampler(sim, 1.0, lambda: sim.now, series,
                                 until=3.0, tracer=tracer))
    sim.run()
    counters = tracer.log.counters(category="sample", name="probe")
    assert [c.attrs["value"] for c in counters] == series.values
    assert [c.ts for c in counters] == series.times


# -- YARN determinism & over-release (satellites) -----------------------------

def _yarn(seed=5, slaves=2):
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", slaves)
    yarn = YarnScheduler(sim, cluster.metered_servers,
                         default_config("edison"), random.Random(seed))
    return sim, cluster, yarn


def test_nodemanager_over_release_raises():
    sim, cluster, yarn = _yarn(slaves=1)
    nm = yarn.nodes[cluster.metered_servers[0].name]
    nm.reserve(300)
    nm.release(300)
    with pytest.raises(ValueError):
        nm.release(300)                      # double release
    with pytest.raises(ValueError):
        nm.release(0)


def test_yarn_double_release_of_grant_raises():
    sim, cluster, yarn = _yarn(slaves=1)
    grants = []

    def task():
        grant = yield from yarn.allocate(150)
        grants.append(grant)

    sim.run(until=sim.process(task()))
    yarn.release(grants[0])
    with pytest.raises(ValueError):
        yarn.release(grants[0])


def test_identical_seeds_give_identical_schedules():
    def schedule(seed):
        spec, config = JOB_FACTORIES["pi"]("edison", 4)
        tracer = Tracer(categories={"yarn"})
        JobRunner("edison", 4, config=config, seed=seed,
                  trace=tracer).run(spec)
        return [(e.ts, e.name, e.node, tuple(sorted(e.attrs.items())))
                for e in tracer.log]

    assert schedule(77) == schedule(77)
