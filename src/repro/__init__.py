"""repro — a simulation-based reproduction of Zhao et al., VLDB 2016.

"An Experimental Evaluation of Datacenter Workloads on Low-Power
Embedded Micro Servers" measured a 35-node Intel Edison cluster against
Dell PowerEdge R620 servers.  This package rebuilds that study as a
calibrated discrete-event simulation: the hardware models consume the
paper's measured component capacities, and every table and figure of
the evaluation has a corresponding runner here.

Quick start::

    from repro import WebServiceDeployment
    deployment = WebServiceDeployment("edison")
    result = deployment.run_level(concurrency=512, duration=3.0)
    print(result.requests_per_second, result.mean_power_w)

See README.md for the architecture tour; ``python -m repro claims``
checks every table and figure the paper prints against the claims
table in ``core/claims.py``.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".cluster": ("Cluster", "dell_cluster", "edison_cluster", "hadoop_cluster",
                 "web_cluster"),
    ".core": ("paperdata",),
    ".core.metrics": ("work_done_per_joule",),
    ".energy": ("PowerMeter",),
    ".faults": ("FaultInjector", "FaultPlan", "job_kill_experiment",
                "single_node_kill", "web_kill_experiment"),
    ".hardware": ("DELL_R620", "EDISON", "EDISON_INTEGRATED_NIC", "Server",
                  "ServerSpec", "make_server"),
    ".mapreduce": ("JOB_FACTORIES", "TABLE8_JOBS", "JobReport", "JobRunner",
                   "JobSpec", "run_job"),
    ".sim": ("Simulation",),
    ".tco": ("cluster_tco", "table10"),
    ".telemetry": ("DetectionReport", "SloReport", "SloSpec", "Telemetry",
                   "TimeSeriesDB", "default_rules"),
    ".trace": ("TraceLog", "Tracer", "delay_decomposition_from_trace",
               "to_chrome_trace", "write_chrome_trace"),
    ".web": ("WebServiceDeployment", "WebWorkload", "delay_distribution",
             "measure_delay_decomposition", "sweep_concurrency"),
})
__all__.append("__version__")
