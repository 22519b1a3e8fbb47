"""Yarn/Hadoop-style log files for the logcount jobs.

Logcount extracts a ``<'YYYY-MM-DD LEVEL', 1>`` pair per log line and
counts occurrences.  Log lines are long (~120 bytes) compared to the
tiny extracted key, so the map output is a small fraction of the input
and a combiner pass collapses each split to a handful of distinct
(date, level) keys.
"""

from __future__ import annotations

from ..core import paperdata as paper
from .datasets import Dataset, split_evenly

#: Mean bytes of one log line.
MEAN_LOG_LINE_BYTES = 120.0
#: Serialised ``<date level, 1>`` record size.
LOG_KEY_RECORD_BYTES = 20.0
#: Distinct (date, level) keys per split are a few dozen, so the
#: combiner keeps almost nothing of the map output volume.
COMBINE_SURVIVAL = 0.002

def logcount_dataset(total_bytes: int = paper.LOGCOUNT_INPUT_BYTES,
                     files: int = paper.LOGCOUNT_INPUT_FILES) -> Dataset:
    """Describe the paper's 1 GB / 500-file Yarn log input."""
    return Dataset(
        name="logcount-logs",
        files=split_evenly(total_bytes, files, "log",
                           bytes_per_record=MEAN_LOG_LINE_BYTES),
        map_output_record_bytes=LOG_KEY_RECORD_BYTES,
        map_output_ratio=LOG_KEY_RECORD_BYTES / MEAN_LOG_LINE_BYTES,
        combine_survival=COMBINE_SURVIVAL,
    )

