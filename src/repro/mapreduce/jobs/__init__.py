"""Job library: the six Table 8 workloads plus teragen/teravalidate.

``JOB_FACTORIES`` maps each job name to a factory
``(platform, slaves) -> (JobSpec, HadoopConfig)`` that applies the
paper's per-platform, per-cluster-size tuning; the ``catalogue`` module
holds every job, its input ``Dataset`` and its calibrated costs.
``JOB_NAMES`` and ``TABLE8_JOBS`` name the jobs without importing the
runtime.
"""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".names": ("JOB_NAMES", "TABLE8_JOBS"),
    ".catalogue": ("JOB_FACTORIES", "logcount2_job", "logcount_job",
                   "pi_job", "teragen_job", "terasort_job",
                   "teravalidate_job", "wordcount2_job", "wordcount_job"),
})
