"""Synthetic workload data: text corpus, logs and terasort records."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".datasets": ("Dataset", "DatasetFile", "split_evenly"),
    ".loggen": ("LogGenerator", "logcount_dataset"),
    ".teragen": ("TeragenGenerator", "terasort_dataset"),
    ".textgen": ("ZipfTextGenerator", "wordcount_dataset"),
})
