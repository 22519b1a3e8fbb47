"""The evaluation harness: paper constants, metrics, capacity, reports."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".": ("paperdata",),
    ".capacity": ("ReplacementEstimate", "replacement_estimate"),
    ".metrics": ("efficiency_ratio", "mean_speedup_across_jobs",
                 "relative_error", "speedup_per_doubling", "within_band",
                 "work_done_per_joule"),
    ".report": ("format_series", "format_table", "paper_vs_measured"),
})
