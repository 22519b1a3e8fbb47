"""Job library: the six Table 8 workloads plus teragen/teravalidate.

``JOB_FACTORIES`` maps each job name to a factory
``(platform, slaves) -> (JobSpec, HadoopConfig)`` that applies the
paper's per-platform, per-cluster-size tuning.  ``JOB_NAMES`` and
``TABLE8_JOBS`` name the jobs without importing the runtime.
"""

from ..._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".names": ("JOB_NAMES", "TABLE8_JOBS"),
    ".registry": ("JOB_FACTORIES",),
    ".logcount": ("logcount2_job", "logcount_job"),
    ".pi": ("pi_job",),
    ".terasort": ("teragen_job", "terasort_job", "teravalidate_job"),
    ".wordcount": ("wordcount2_job", "wordcount_job"),
})
