"""Regenerate the generated regions of EXPERIMENTS.md (about 4 minutes).

EXPERIMENTS.md mixes generated and hand-written sections.  This script
rewrites only the text between each ``<!-- generated:NAME -->`` and
``<!-- /generated:NAME -->`` pair (NAME in ``REGIONS``; ``claims`` is
every row of ``repro.core.claims``) and leaves every other byte alone.

Run:  PYTHONPATH=src python scripts/generate_experiments_report.py [EXPERIMENTS.md]
"""

import sys
import time
from typing import Dict

REGIONS = ("preamble", "claims", "tracing", "faults")


def splice(document: str, regions: Dict[str, str]) -> str:
    """Replace the body of each named region; keep every other byte.

    Raises ValueError when a region's markers are missing, repeated or
    out of order, so a hand edit that breaks one is caught before any
    text is lost.
    """
    for name, body in regions.items():
        begin = f"<!-- generated:{name} -->\n"
        end = f"<!-- /generated:{name} -->"
        if document.count(begin) != 1 or document.count(end) != 1 \
                or document.index(begin) > document.index(end):
            raise ValueError(f"EXPERIMENTS region {name!r} needs exactly "
                             f"one '{begin.strip()}' ... '{end}' pair")
        head, rest = document.split(begin)
        tail = rest.split(end)[1]
        document = head + begin + body.rstrip("\n") + "\n" + end + tail
    return document


PREAMBLE = '''# EXPERIMENTS — paper vs simulated, every table and figure

The regions between `generated` markers are rewritten by
`python scripts/generate_experiments_report.py`; every other section is
hand-written and left alone.

Full-scale MapReduce cells (35 Edison / 2 Dell) and the per-platform
hardware capacities are **calibration anchors** (fitted; see
`src/repro/mapreduce/costs.py`); everything else — scaled-down cluster
sizes, web sweeps, delay decompositions, TCO — is a **prediction** of
the simulator under the calibrated hardware models.

Known deviations (and why they are accepted):

* The paper's smallest-cluster MapReduce cells (4/8 Edison nodes,
  1 Dell node for wordcount/logcount/terasort) degrade *superlinearly*
  in ways the simulator under-predicts by up to ~50 %.  The paper
  itself attributes such cells to memory pressure and disk-seek thrash
  at saturation, neither of which the fluid models capture; the
  qualitative ordering (smaller cluster -> slower, sometimes cheaper in
  energy) is preserved.
* Edison cache-fetch delay (Table 7) grows far more slowly than the
  paper's measurement, and its blow-up is *not* reproduced: it stays
  at about 6-7 ms from 480 to 3840 req/s, where the paper climbs from
  4.6 to 105 ms, and reaches about 28 ms at 7680 req/s against the
  paper's 212 ms (-87 %).  The paper's own growth starts at
  ~25 % cluster utilisation, which no open queueing model reproduces
  without an additional contention source.
* Dell MapReduce energies sit ~5-20 % below the paper (the component
  power blend under-credits IO-phase draw on the Xeon); who-wins and
  the efficiency factors are unaffected.'''


def claims_section() -> str:
    from repro.core import claims

    start = time.time()
    results = claims.check()
    return f'''## Paper claims — paper vs simulated

Every row of `src/repro/core/claims.py` as `python -m repro claims` (the
`paper-gate` CI job) prints it.  A numeric row's bound is its error when
recorded, rounded up to the next whole percent (minimum 1 %); an
ordering row (`-` under paper) keeps the replaced assertion's comparison.

{claims.render(results)} (checked in {time.time() - start:.0f} s of
wall-clock simulation).'''


TRACING = '''## Tracing & profiling a run

Any of the runs above can be captured as a structured trace and
inspected span-by-span.  To record a Figure-12-style wordcount run
(map/reduce attempts, shuffles, container grants, vcore queueing and
the power-meter track on one timeline):

```bash
python -m repro job wordcount --platform edison --slaves 4 --trace fig12.json
```

then open `fig12.json` in [Perfetto](https://ui.perfetto.dev) (or
`chrome://tracing`): each simulated node is a named thread track;
`task` spans show map/reduce attempts and shuffles, `resource` spans
show vcore/disk queueing, and the `power` counter track is the meter
trace whose integral is the reported energy.  The same flag works for
the web tier (`python -m repro web ... --trace web.json`), producing
per-request connect/cache/db/request spans.

The trace is also a correctness oracle: `tests/test_trace.py`
re-derives the Table 7 delay decomposition from the web spans alone and
holds it to within 1 % of the call-log numbers, and asserts traced and
untraced runs produce bit-identical results.'''


def faults_section() -> str:
    from repro.faults import job_kill_experiment, web_kill_experiment

    web = web_kill_experiment(concurrency=2048, duration=4.0, warmup=1.0,
                              kill_at=0.0)
    dell = web_kill_experiment(platform="dell", concurrency=2048,
                               duration=4.0, warmup=1.0, kill_at=0.0)
    job = job_kill_experiment("wordcount", "edison", 35, kill_at=150.0)
    status = "completes" if job.completed else "fails"
    return f'''## Reliability & fault injection

The paper's Section 5.2 chose HDFS replication 2 on the 35-node
Edison cluster because sensor-class nodes drop out routinely; the
implicit claim is that losing one node is a *marginal* event.
`repro.faults` makes that claim measurable: a seeded fault plan kills
nodes, throttles CPUs, drops packets, partitions racks or fails disks
mid-run, the YARN/HDFS/web layers detect and recover, and the chaos
runs below compare against bit-identical fault-free twins (an attached
injector with an empty plan changes nothing — asserted by tests, like
tracing).

```bash
python -m repro chaos web --platform edison --concurrency 2048
python -m repro chaos job wordcount --platform edison --slaves 35 --kill-at 150
python -m repro web --platform edison --fault-plan plan.json
```

| experiment | measured |
|---|---|
| kill 1 of {web.web_servers} Edison web servers: goodput lost | \
{web.goodput_loss_fraction * 100:.1f} % (capacity share \
{web.expected_loss_fraction * 100:.1f} %) |
| kill 1 of {dell.web_servers} Dell web servers: goodput lost | \
{dell.goodput_loss_fraction * 100:.1f} % |
| kill 1 of 35 Hadoop slaves at 150 s: wordcount | {status}, \
+{job.time_overhead_fraction * 100:.0f} % time, \
+{job.energy_overhead_fraction * 100:.0f} % energy |
| map outputs lost and re-executed | {job.recovered_maps} |

The contrast is the reliability argument in one table: at saturation
the 24-server Edison web tier sheds ~1/24 of its goodput when a node
dies — close to the 1/35 marginal-node share — while the 2-server
Dell tier loses half its capacity.  The killed Hadoop slave costs a
re-execution and replica-fallback overhead, not the job; a job fails
cleanly only when *every* replica of a block is gone.'''


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    with open(path) as handle:
        document = handle.read()
    splice(document, dict.fromkeys(REGIONS, ""))   # fail before simulating
    start = time.time()
    document = splice(document, {
        "preamble": PREAMBLE, "claims": claims_section(),
        "tracing": TRACING, "faults": faults_section()})
    with open(path, "w") as handle:
        handle.write(document)
    print(f"updated {path} in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
