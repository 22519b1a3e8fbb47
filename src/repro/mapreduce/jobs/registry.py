"""The job catalogue: every name in ``JOB_NAMES`` mapped to its factory."""

from .logcount import logcount2_job, logcount_job
from .pi import pi_job
from .terasort import teragen_job, terasort_job, teravalidate_job
from .wordcount import wordcount2_job, wordcount_job

JOB_FACTORIES = {
    "wordcount": wordcount_job,
    "wordcount2": wordcount2_job,
    "logcount": logcount_job,
    "logcount2": logcount2_job,
    "pi": pi_job,
    "terasort": terasort_job,
    "teragen": teragen_job,
    "teravalidate": teravalidate_job,
}
