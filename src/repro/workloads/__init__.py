"""Synthetic workload data: text corpus, logs, terasort records, wiki DB."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".datasets": ("Dataset", "DatasetFile", "split_evenly"),
    ".loggen": ("LogGenerator", "logcount_dataset"),
    ".teragen": ("TeragenGenerator", "terasort_dataset"),
    ".textgen": ("ZipfTextGenerator", "wordcount_dataset"),
    ".wikidb": ("TableSpec", "WikiDatabase", "build_tables", "table_weights"),
})
