"""Workload datasets: the byte and record counts each job reads."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".datasets": ("Dataset", "DatasetFile", "split_evenly"),
    ".loggen": ("logcount_dataset",),
    ".teragen": ("terasort_dataset",),
    ".textgen": ("wordcount_dataset",),
})
