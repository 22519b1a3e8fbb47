"""Zipf-distributed text corpus for the wordcount jobs.

The paper's wordcount input is 200 files totalling 1 GB with ~10-byte
map-output records.  No word is ever drawn: ``MEAN_WORD_BYTES`` fixes
the records per byte, and ``COMBINE_SURVIVAL`` the share of map output
a combiner keeps, set for the few distinct words per split that a
Zipfian (natural-language) corpus has.
"""

from __future__ import annotations

from ..core import paperdata as paper
from .datasets import Dataset, split_evenly

#: Mean word length (letters) plus the separating space.
MEAN_WORD_BYTES = 6.0
#: Fraction of map-output volume a combiner pass keeps: with ~5 MB
#: splits (~870 k words) a Zipf corpus has ~35 k distinct words, so a
#: sum-combiner keeps ~4 % of the records.
COMBINE_SURVIVAL = 0.04


def wordcount_dataset(total_bytes: int = paper.WORDCOUNT_INPUT_BYTES,
                      files: int = paper.WORDCOUNT_INPUT_FILES) -> Dataset:
    """Describe the paper's 1 GB / 200-file wordcount input."""
    return Dataset(
        name="wordcount-text",
        files=split_evenly(total_bytes, files, "text",
                           bytes_per_record=MEAN_WORD_BYTES),
        map_output_record_bytes=paper.WORDCOUNT_MAP_OUTPUT_RECORD_BYTES,
        # Each ~6-byte word becomes a ~10-byte <word, 1> record.
        map_output_ratio=paper.WORDCOUNT_MAP_OUTPUT_RECORD_BYTES
        / MEAN_WORD_BYTES,
        combine_survival=COMBINE_SURVIVAL,
    )

