"""Teragen-style records for the terasort job.

Terasort operates on fixed 100-byte records with 10-byte keys; the map
output is the input itself (identity map re-keyed), so the output ratio
is 1.0 and a combiner would be useless.
"""

from __future__ import annotations

from ..core import paperdata as paper
from .datasets import Dataset, split_evenly

#: The classic terasort record layout: 10-byte key + 90-byte payload.
RECORD_BYTES = 100


def terasort_dataset(total_bytes: int = paper.TERASORT_INPUT_BYTES,
                     files: int = paper.TERASORT_MAPS) -> Dataset:
    """Describe the scaled-down 10 GB terasort input.

    The paper reports 168 input files/map tasks for its 10 GB run with
    64 MB blocks (~60 MB of records per file).
    """
    return Dataset(
        name="terasort-records",
        files=split_evenly(total_bytes, files, "teragen",
                           bytes_per_record=RECORD_BYTES),
        map_output_record_bytes=float(RECORD_BYTES),
        map_output_ratio=1.0,       # identity map
        combine_survival=1.0,       # no combiner can shrink a sort
    )

