"""Exact pins of the MapReduce and web driver paths that planes switch on.

Speculation, retries, crashes and partitions each steer a task attempt or an httperf connection through a different
branch of its lifecycle.  Each scenario below is a small seeded cell;
its fingerprint holds report fields, ledger and partition counters, the
kernel's processed-event count and a digest of the trace, all exact.
A refactor of a driver must leave every fingerprint unchanged.

Run this file as a script to print the current fingerprints.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import (cpu_throttle, node_crash, packet_loss,
                                 rack_partition)
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.mapreduce.runtime import JobFailed
from repro.trace import Tracer
from repro.web import WebServiceDeployment
from repro.web.params import WebWorkload
from repro.web.loadshape import DiurnalShape, FlashCrowd, ShapedLoad
from repro.web.rotation import WeightedRotation
from tests.test_mapreduce_jobs import small_spec


#: Trace categories whose per-name (and per-outcome) counts are pinned
#: in the clear; the digest covers every event.
_PINNED_CATEGORIES = ("task", "web", "yarn", "resilience", "fault")


def _trace_fingerprint(tracer):
    """Event count, per-name counts and a digest of every field."""
    digest = hashlib.sha256()
    for event in tracer.log:
        digest.update(repr((event.ts, event.dur, event.phase,
                            event.category, event.name, event.node,
                            json.dumps(event.attrs, sort_keys=True),
                            event.trace_id, event.span_id,
                            event.parent_id)).encode())
    spans = Counter(
        f"{event.name}:{event.attrs.get('ok', event.attrs.get('status'))}"
        f"{':killed' if event.attrs.get('killed') else ''}"
        for event in tracer.log if event.category in _PINNED_CATEGORIES)
    return {"events": len(tracer.log), "spans": dict(sorted(spans.items())),
            "sha256": digest.hexdigest()}


def _ledger(ledger):
    if ledger is None:
        return None
    return {"counters": dict(sorted(ledger.counters.items())),
            "waste_joules": dict(sorted(ledger.joules.items()))}


# -- MapReduce ----------------------------------------------------------------

def _job(spec, faults=(), resilience=False, traced=False, platform="edison",
         slaves=4, seed=5, racks=0, config=None):
    tracer = Tracer() if traced else None
    runner = JobRunner(platform, slaves, config=config, seed=seed,
                       trace=tracer, resilience=resilience, racks=racks)
    if faults:
        FaultInjector(runner.cluster, FaultPlan(faults=tuple(faults)))
    try:
        report = runner.run(spec)
        outcome = {"seconds": report.seconds, "joules": report.joules,
                   "locality": report.locality_fraction}
    except JobFailed as exc:
        outcome = {"failed": str(exc)}
    return {"outcome": outcome,
            "processed": runner.sim.calendar_stats()["processed"],
            "ledger": _ledger(runner.resilience_ledger),
            "partition": dict(runner.partition_counters),
            "trace": _trace_fingerprint(tracer) if traced else None}


def _straggler():
    return [cpu_throttle("edison-slave-0", at=10.0, duration=1e9,
                         factor=0.08)]


def job_plain():
    return _job(small_spec())


def job_traced():
    return _job(small_spec(), traced=True)


def job_speculation():
    return _job(small_spec(), faults=_straggler(),
                resilience=True, traced=True)


def job_crash():
    """A crash mid-map, then one that kills a running reduce."""
    return _job(small_spec(),
                faults=[node_crash("edison-slave-1", at=40.0, repair_s=30.0),
                        node_crash("edison-slave-2", at=135.0,
                                   repair_s=20.0)],
                traced=True)


def job_crash_speculation():
    return _job(small_spec(),
                faults=_straggler() + [node_crash("edison-slave-1", at=40.0,
                                                  repair_s=30.0)],
                resilience=True, traced=True)


def job_partition():
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 8)
    config = dataclasses.replace(config, replication=2)
    return _job(spec, faults=[rack_partition("dell-rack-0", at=20.0,
                                             duration=6.0)],
                platform="dell", slaves=8, seed=20260809, racks=2,
                config=config, traced=True)


# -- web ------------------------------------------------------------------------

def _web(faults=(), resilience=False, traced=False, concurrency=24,
         duration=3.0, warmup=0.5, shaped=None, rotation=False,
         client_timeout_s=None):
    tracer = Tracer() if traced else None
    workload = None
    if client_timeout_s is not None:
        workload = WebWorkload(client_timeout_s=client_timeout_s)
    deployment = WebServiceDeployment("edison", "1/8", workload=workload,
                                      seed=7, resilience=resilience,
                                      trace=tracer)
    if faults:
        deployment.attach_faults(FaultPlan(faults=tuple(faults)))
    if shaped is None:
        level = deployment.run_level(concurrency, duration=duration,
                                     warmup=warmup, collect_delays=True)
    else:
        pool = None
        if rotation:
            pool = WeightedRotation(deployment.sim)
            for i, web in enumerate(deployment.web_nodes):
                pool.add(web, 1.0 + i % 2)
        level = deployment.run_shaped(shaped, duration=duration,
                                      warmup=warmup, rotation=pool,
                                      collect_delays=True)
    delays = deployment.last_driver.delays
    return {"level": dataclasses.asdict(level),
            "delays": [len(delays), sum(delays)],
            "processed": deployment.sim.calendar_stats()["processed"],
            "ledger": _ledger(deployment.resilience_ledger),
            "trace": _trace_fingerprint(tracer) if traced else None}


def _gray():
    """Loss, a deep throttle and a crash: hedges, sheds, retries and a
    breaker trip all engage on the three-server 1/8 tier."""
    return [packet_loss("web-0", at=0.5, duration=100.0, loss=0.3),
            cpu_throttle("web-1", at=0.5, duration=100.0, factor=0.02),
            node_crash("web-2", at=0.8, repair_s=1.0)]


def _blackout():
    """One crash, then every backend down at once for a moment."""
    return [node_crash("web-1", at=1.2, repair_s=1.0),
            node_crash("web-0", at=1.9, repair_s=0.6),
            node_crash("web-2", at=1.9, repair_s=0.6)]


def _day():
    return ShapedLoad(
        diurnal=DiurnalShape(base_rps=150.0, peak_rps=400.0, period_s=4.0),
        flashes=(FlashCrowd(at_s=1.0, ramp_s=0.5, hold_s=0.5, decay_s=0.5,
                            multiplier=2.0),))


def web_closed():
    return _web(traced=True)


def web_overload():
    """Past the knee, with a client timeout short enough to fire."""
    return _web(concurrency=300, duration=2.5, client_timeout_s=0.3,
                traced=True)


def web_overload_resilient():
    return _web(concurrency=300, duration=2.5, client_timeout_s=0.3,
                resilience=True)


def web_blackout():
    return _web(faults=_blackout(), traced=True)


def web_gray():
    return _web(faults=_gray(), concurrency=48)


def web_gray_resilient():
    return _web(faults=_gray(), concurrency=48,
                resilience=True, traced=True)


def web_blackout_resilient():
    return _web(faults=_blackout(), resilience=True,
                traced=True)


def web_day():
    return _web(shaped=_day(), duration=4.0, traced=True)


def web_day_blackout():
    return _web(shaped=_day(), duration=4.0, faults=_blackout(),
                traced=True)


def web_day_rotation():
    return _web(shaped=_day(), duration=4.0, rotation=True)


SCENARIOS = {f.__name__: f for f in (
    job_plain, job_traced, job_speculation, job_crash,
    job_crash_speculation, job_partition, web_closed, web_overload,
    web_overload_resilient, web_blackout, web_blackout_resilient, web_gray,
    web_gray_resilient, web_day, web_day_blackout, web_day_rotation)}

EXPECTED = {
    'job_crash': {
        'outcome': {
            'seconds': 206.1218203604352,
            'joules': 1249.4257659240216,
            'locality': 1.0,
        },
        'processed': 2317,
        'ledger': None,
        'partition': {
            'zombies_started': 0,
            'duplicate_kills': 0,
            'reregistered': 0,
        },
        'trace': {
            'events': 3509,
            'spans': {
                'container.release:None': 51,
                'container.wait:None': 51,
                'fault.crash:None': 4,
                'hdfs-read:None': 20,
                'job:None': 1,
                'map-attempt:False:killed': 4,
                'map-attempt:True': 20,
                'node.blacklist:None': 2,
                'node.rejoin:None': 2,
                'reduce-attempt:False:killed': 1,
                'reduce-attempt:True': 4,
                'shuffle:None': 4,
            },
            'sha256': 'ea4fc77bd073901da11601ba19007adf172d032712eaa6bd9bfad5b4ef1e61df',
        },
    },
    'job_crash_speculation': {
        'outcome': {
            'seconds': 228.234045526757,
            'joules': 1394.2555565357827,
            'locality': 1.0,
        },
        'processed': 2368,
        'ledger': {
            'counters': {
                'breaker_opens': 0,
                'hedge_wins': 0,
                'hedges': 0,
                'retries': 0,
                'sheds': 0,
                'speculative_abandoned': 3,
                'speculative_kills': 4,
                'speculative_launches': 8,
                'speculative_wins': 4,
            },
            'waste_joules': {
                'hedge': 0.0,
                'shed': 0.0,
                'speculation': 74.88251198141282,
            },
        },
        'partition': {
            'zombies_started': 0,
            'duplicate_kills': 0,
            'reregistered': 0,
        },
        'trace': {
            'events': 3584,
            'spans': {
                'container.release:None': 40,
                'container.wait:None': 40,
                'fault.cpu_throttle:None': 1,
                'fault.crash:None': 2,
                'hdfs-read:None': 16,
                'job:None': 1,
                'map-attempt:False:killed': 8,
                'map-attempt:True': 16,
                'node.blacklist:None': 1,
                'node.rejoin:None': 1,
                'reduce-attempt:True': 4,
                'shuffle:None': 4,
                'speculation.launch:None': 8,
            },
            'sha256': 'ea48802bc2359c4cb6cfc0508011f5d436edf2f0b33060da7b0be902be09d9fa',
        },
    },
    'job_partition': {
        'outcome': {
            'seconds': 48.952902465546366,
            'joules': 27634.980047170055,
            'locality': 1.0,
        },
        'processed': 18338,
        'ledger': None,
        'partition': {
            'zombies_started': 48,
            'duplicate_kills': 48,
            'reregistered': 4,
        },
        'trace': {
            'events': 9533,
            'spans': {
                'container.release:None': 192,
                'container.wait:None': 240,
                'fault.partition:None': 2,
                'hdfs-read:None': 112,
                'job:None': 1,
                'map-attempt:False:killed': 48,
                'map-attempt:True': 96,
                'node.blacklist:None': 4,
                'node.rejoin:None': 4,
                'reduce-attempt:True': 96,
                'shuffle:None': 96,
            },
            'sha256': 'b9cb81d116770b8ccd111b6472d4eef209ced819207cb2b9362b158d53233180',
        },
    },
    'job_plain': {
        'outcome': {
            'seconds': 152.3046905984019,
            'joules': 932.7326752069597,
            'locality': 1.0,
        },
        'processed': 1371,
        'ledger': None,
        'partition': {
            'zombies_started': 0,
            'duplicate_kills': 0,
            'reregistered': 0,
        },
        'trace': None,
    },
    'job_speculation': {
        'outcome': {
            'seconds': 228.29432626990013,
            'joules': 1394.7060229926562,
            'locality': 1.0,
        },
        'processed': 1777,
        'ledger': {
            'counters': {
                'breaker_opens': 0,
                'hedge_wins': 0,
                'hedges': 0,
                'retries': 0,
                'sheds': 0,
                'speculative_abandoned': 2,
                'speculative_kills': 4,
                'speculative_launches': 7,
                'speculative_wins': 4,
            },
            'waste_joules': {
                'hedge': 0.0,
                'shed': 0.0,
                'speculation': 74.79385518877004,
            },
        },
        'partition': {
            'zombies_started': 0,
            'duplicate_kills': 0,
            'reregistered': 0,
        },
        'trace': {
            'events': 3358,
            'spans': {
                'container.release:None': 24,
                'container.wait:None': 24,
                'fault.cpu_throttle:None': 1,
                'hdfs-read:None': 16,
                'job:None': 1,
                'map-attempt:False:killed': 4,
                'map-attempt:True': 16,
                'reduce-attempt:True': 4,
                'shuffle:None': 4,
                'speculation.launch:None': 7,
            },
            'sha256': 'f794db6e374a330c6ee0aa0aaa86fb3ad06f22eb41ff83dde1dc8a456c5e3caa',
        },
    },
    'job_traced': {
        'outcome': {
            'seconds': 152.3046905984019,
            'joules': 932.7326752069597,
            'locality': 1.0,
        },
        'processed': 1371,
        'ledger': None,
        'partition': {
            'zombies_started': 0,
            'duplicate_kills': 0,
            'reregistered': 0,
        },
        'trace': {
            'events': 2502,
            'spans': {
                'container.release:None': 20,
                'container.wait:None': 20,
                'hdfs-read:None': 16,
                'job:None': 1,
                'map-attempt:True': 16,
                'reduce-attempt:True': 4,
                'shuffle:None': 4,
            },
            'sha256': '17edd78970d322fa9465affd4bcd1143cfd680b5d546258cfc88663dccb79d9e',
        },
    },
    'web_blackout': {
        'level': {
            'platform': 'edison',
            'concurrency': 24,
            'calls_per_connection': 37,
            'window_s': 2.5,
            'ok_calls': 1445,
            'error_calls': 29,
            'timeout_calls': 0,
            'failed_connections': 2,
            'connections': 62,
            'syn_retries': 5,
            'mean_delay_s': 0.026079250835069488,
            'mean_power_w': 7.449818939584047,
        },
        'delays': [1445, 37.68451745667541],
        'processed': 44864,
        'ledger': None,
        'trace': {
            'events': 18450,
            'spans': {
                'cache:None': 1729,
                'call:200': 1706,
                'call:503': 29,
                'connect:None': 71,
                'connection:None': 53,
                'db:None': 129,
                'fault.crash:None': 6,
                'request:200': 1706,
                'request:503': 29,
            },
            'sha256': 'ad26d23f42e02b6d526d90fa08c269da105af574219ef99350841bfbce4feef8',
        },
    },
    'web_blackout_resilient': {
        'level': {
            'platform': 'edison',
            'concurrency': 24,
            'calls_per_connection': 37,
            'window_s': 2.5,
            'ok_calls': 1546,
            'error_calls': 0,
            'timeout_calls': 0,
            'failed_connections': 2,
            'connections': 62,
            'syn_retries': 3,
            'mean_delay_s': 0.04388142449045446,
            'mean_power_w': 7.452989539859343,
        },
        'delays': [1546, 67.8406822622426],
        'processed': 47977,
        'ledger': {
            'counters': {
                'breaker_opens': 3,
                'hedge_wins': 0,
                'hedges': 0,
                'retries': 37,
                'sheds': 0,
                'speculative_abandoned': 0,
                'speculative_kills': 0,
                'speculative_launches': 0,
                'speculative_wins': 0,
            },
            'waste_joules': {
                'hedge': 0.0,
                'shed': 0.0,
                'speculation': 0.0,
            },
        },
        'trace': {
            'events': 20103,
            'spans': {
                'cache:None': 1851,
                'call:200': 1807,
                'connect:None': 71,
                'connection:None': 32,
                'db:None': 141,
                'fault.crash:None': 6,
                'request:200': 1807,
                'request:503': 37,
            },
            'sha256': '558adeea839b9fdcbdf5f54dd9330341d02c93a0db954470d22e3da1fbbfcaef',
        },
    },
    'web_closed': {
        'level': {
            'platform': 'edison',
            'concurrency': 24,
            'calls_per_connection': 37,
            'window_s': 2.5,
            'ok_calls': 2285,
            'error_calls': 0,
            'timeout_calls': 0,
            'failed_connections': 0,
            'connections': 68,
            'syn_retries': 0,
            'mean_delay_s': 0.02429003885808635,
            'mean_power_w': 7.768522671705239,
        },
        'delays': [2285, 55.50273879072731],
        'processed': 66048,
        'ledger': None,
        'trace': {
            'events': 28349,
            'spans': {
                'cache:None': 2557,
                'call:200': 2546,
                'connect:None': 77,
                'connection:None': 57,
                'db:None': 192,
                'request:200': 2546,
            },
            'sha256': '57617e84fab4399e2aafd48badb1fe964f7122edf15dc5c67c78faf4a33055d2',
        },
    },
    'web_day': {
        'level': {
            'platform': 'edison',
            'concurrency': 0,
            'calls_per_connection': 5,
            'window_s': 3.5,
            'ok_calls': 1352,
            'error_calls': 0,
            'timeout_calls': 0,
            'failed_connections': 0,
            'connections': 270,
            'syn_retries': 0,
            'mean_delay_s': 0.01076776286855024,
            'mean_power_w': 7.346816448714726,
        },
        'delays': [1352, 14.558015398279926],
        'processed': 38765,
        'ledger': None,
        'trace': {
            'events': 13734,
            'spans': {
                'cache:None': 1446,
                'call:200': 1446,
                'connect:None': 290,
                'connection:None': 289,
                'db:None': 93,
                'request:200': 1446,
            },
            'sha256': '81d8f2e12b4811405df907f3fff5d7156e382ee09efe302857bf7fb9f898781b',
        },
    },
    'web_day_blackout': {
        'level': {
            'platform': 'edison',
            'concurrency': 0,
            'calls_per_connection': 5,
            'window_s': 3.5,
            'ok_calls': 1208,
            'error_calls': 33,
            'timeout_calls': 0,
            'failed_connections': 10,
            'connections': 260,
            'syn_retries': 40,
            'mean_delay_s': 0.057057762162055964,
            'mean_power_w': 7.292932579436489,
        },
        'delays': [1208, 68.9257766917636],
        'processed': 35737,
        'ledger': None,
        'trace': {
            'events': 14122,
            'spans': {
                'cache:None': 1324,
                'call:200': 1302,
                'call:503': 33,
                'connect:None': 280,
                'connection:None': 279,
                'db:None': 103,
                'fault.crash:None': 6,
                'request:200': 1302,
                'request:503': 33,
            },
            'sha256': 'c5be447b6ccbeb20b93b0a48a85449a2e84f32a65b8ab5092d9bed76fdfcd264',
        },
    },
    'web_day_rotation': {
        'level': {
            'platform': 'edison',
            'concurrency': 0,
            'calls_per_connection': 5,
            'window_s': 3.5,
            'ok_calls': 1351,
            'error_calls': 0,
            'timeout_calls': 0,
            'failed_connections': 0,
            'connections': 270,
            'syn_retries': 0,
            'mean_delay_s': 0.020401543924036702,
            'mean_power_w': 7.3529610424376495,
        },
        'delays': [1351, 27.562485841373586],
        'processed': 38868,
        'ledger': None,
        'trace': None,
    },
    'web_gray': {
        'level': {
            'platform': 'edison',
            'concurrency': 48,
            'calls_per_connection': 18,
            'window_s': 2.5,
            'ok_calls': 1218,
            'error_calls': 8,
            'timeout_calls': 0,
            'failed_connections': 0,
            'connections': 115,
            'syn_retries': 3,
            'mean_delay_s': 0.043304849936913,
            'mean_power_w': 7.645516322360232,
        },
        'delays': [1218, 52.74530722316003],
        'processed': 41341,
        'ledger': None,
        'trace': None,
    },
    'web_gray_resilient': {
        'level': {
            'platform': 'edison',
            'concurrency': 48,
            'calls_per_connection': 18,
            'window_s': 2.5,
            'ok_calls': 846,
            'error_calls': 0,
            'timeout_calls': 0,
            'failed_connections': 0,
            'connections': 115,
            'syn_retries': 0,
            'mean_delay_s': 0.13977537607821125,
            'mean_power_w': 7.55762669252764,
        },
        'delays': [846, 118.24996816216672],
        'processed': 33079,
        'ledger': {
            'counters': {
                'breaker_opens': 1,
                'hedge_wins': 83,
                'hedges': 97,
                'retries': 8,
                'sheds': 74,
                'speculative_abandoned': 0,
                'speculative_kills': 0,
                'speculative_launches': 0,
                'speculative_wins': 0,
            },
            'waste_joules': {
                'hedge': 0.25364363422840763,
                'shed': 0.16384627550213485,
                'speculation': 0.0,
            },
        },
        'trace': {
            'events': 13738,
            'spans': {
                'cache:None': 1222,
                'call:200': 1181,
                'connect:None': 146,
                'connection:None': 43,
                'db:None': 78,
                'fault.cpu_throttle:None': 1,
                'fault.crash:None': 2,
                'fault.packet_loss:None': 1,
                'hedge.launch:None': 97,
                'request:200': 1186,
                'request:503': 8,
            },
            'sha256': '1701ad1e25f6c478876fed92a184f98fb074d7b6f05a1ad010e38bfbb827e31e',
        },
    },
    'web_overload': {
        'level': {
            'platform': 'edison',
            'concurrency': 300,
            'calls_per_connection': 5,
            'window_s': 2.0,
            'ok_calls': 1543,
            'error_calls': 189,
            'timeout_calls': 300,
            'failed_connections': 0,
            'connections': 615,
            'syn_retries': 0,
            'mean_delay_s': 0.20772552477074738,
            'mean_power_w': 7.8105983421752985,
        },
        'delays': [1543, 320.5204847212632],
        'processed': 67388,
        'ledger': None,
        'trace': {
            'events': 29728,
            'spans': {
                'cache:None': 2372,
                'call:200': 1997,
                'call:500': 189,
                'call:None': 300,
                'connect:None': 771,
                'connection:None': 560,
                'db:None': 180,
                'request:200': 2292,
                'request:500': 189,
            },
            'sha256': '8416a5dfeccd012d98de0087671419a6b8069c640df247f27ba37431d79dac7d',
        },
    },
    'web_overload_resilient': {
        'level': {
            'platform': 'edison',
            'concurrency': 300,
            'calls_per_connection': 5,
            'window_s': 2.0,
            'ok_calls': 1710,
            'error_calls': 225,
            'timeout_calls': 57,
            'failed_connections': 0,
            'connections': 615,
            'syn_retries': 0,
            'mean_delay_s': 0.21855143931081,
            'mean_power_w': 7.807040178599022,
        },
        'delays': [1710, 373.7229612214851],
        'processed': 79229,
        'ledger': {
            'counters': {
                'breaker_opens': 0,
                'hedge_wins': 0,
                'hedges': 0,
                'retries': 944,
                'sheds': 1278,
                'speculative_abandoned': 0,
                'speculative_kills': 0,
                'speculative_launches': 0,
                'speculative_wins': 0,
            },
            'waste_joules': {
                'hedge': 0.0,
                'shed': 0.05659338921397967,
                'speculation': 0.0,
            },
        },
        'trace': None,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_onpath_fingerprint(name):
    assert SCENARIOS[name]() == EXPECTED[name]


if __name__ == "__main__":
    for scenario_name in sorted(SCENARIOS):
        print(f"{scenario_name}: {SCENARIOS[scenario_name]()!r}")
