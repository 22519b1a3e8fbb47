"""Unit tests for the job catalogue's input datasets."""

import pytest

from repro.core import paperdata as paper
from repro.mapreduce.jobs.catalogue import (LOGCOUNT_INPUT, TERASORT_INPUT,
                                            WORDCOUNT_INPUT, Dataset)


def test_dataset_totals_and_validation():
    ds = Dataset(1000, 4, map_output_ratio=1.5, combine_survival=0.1)
    assert ds.total_bytes == 1000
    assert ds.file_count == 4
    with pytest.raises(ValueError):
        Dataset(1000, 0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Dataset(3, 4, 1.0, 0.1)
    with pytest.raises(ValueError):
        Dataset(1000, 4, -0.1, 0.1)
    with pytest.raises(ValueError):
        Dataset(1000, 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        Dataset(1000, 4, 1.0, 1.5)


def test_wordcount_dataset_matches_paper():
    ds = WORDCOUNT_INPUT
    assert ds.file_count == paper.WORDCOUNT_INPUT_FILES
    assert ds.total_bytes == paper.WORDCOUNT_INPUT_BYTES
    # <word, 1> records inflate the input (~10 B out per ~6 B word).
    assert ds.map_output_ratio > 1.3
    assert ds.combine_survival < 0.1


def test_logcount_dataset_matches_paper():
    ds = LOGCOUNT_INPUT
    assert ds.file_count == paper.LOGCOUNT_INPUT_FILES
    assert ds.total_bytes == paper.LOGCOUNT_INPUT_BYTES
    # Tiny keys from long lines: output is a small fraction of input.
    assert ds.map_output_ratio < 0.3
    assert ds.combine_survival < ds.map_output_ratio


def test_terasort_dataset_block_layout():
    ds = TERASORT_INPUT
    assert ds.total_bytes == paper.TERASORT_INPUT_BYTES
    assert ds.file_count == paper.TERASORT_MAPS       # 168 x 64 MB
    assert ds.map_output_ratio == 1.0
    assert ds.combine_survival == 1.0
