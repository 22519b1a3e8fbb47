"""Unit tests for the workload datasets."""

import pytest

from repro.core import paperdata as paper
from repro.workloads import (Dataset, logcount_dataset, split_evenly,
                             terasort_dataset, wordcount_dataset)


def test_split_evenly_preserves_total():
    files = split_evenly(1_000_003, 7, "f", bytes_per_record=10)
    assert sum(f.size_bytes for f in files) == 1_000_003
    assert len(files) == 7


def test_split_evenly_validation():
    with pytest.raises(ValueError):
        split_evenly(5, 10, "f", 1)
    with pytest.raises(ValueError):
        split_evenly(10, 0, "f", 1)


def test_dataset_totals_and_validation():
    files = split_evenly(1000, 4, "f", bytes_per_record=10)
    ds = Dataset("d", files, map_output_record_bytes=10,
                 map_output_ratio=1.5, combine_survival=0.1)
    assert ds.total_bytes == 1000
    assert ds.file_count == 4
    assert ds.total_records == pytest.approx(100, abs=4)
    with pytest.raises(ValueError):
        Dataset("d", (), 10, 1.0, 0.1)
    with pytest.raises(ValueError):
        Dataset("d", files, 10, 1.0, 0.0)


def test_wordcount_dataset_matches_paper():
    ds = wordcount_dataset()
    assert ds.file_count == paper.WORDCOUNT_INPUT_FILES
    assert ds.total_bytes == paper.WORDCOUNT_INPUT_BYTES
    # <word, 1> records inflate the input (~10 B out per ~6 B word).
    assert ds.map_output_ratio > 1.3
    assert ds.combine_survival < 0.1


def test_logcount_dataset_matches_paper():
    ds = logcount_dataset()
    assert ds.file_count == paper.LOGCOUNT_INPUT_FILES
    assert ds.total_bytes == paper.LOGCOUNT_INPUT_BYTES
    # Tiny keys from long lines: output is a small fraction of input.
    assert ds.map_output_ratio < 0.3
    assert ds.combine_survival < ds.map_output_ratio


def test_terasort_dataset_block_layout():
    ds = terasort_dataset()
    assert ds.total_bytes == paper.TERASORT_INPUT_BYTES
    assert ds.file_count == paper.TERASORT_MAPS       # 168 x 64 MB
    assert ds.map_output_ratio == 1.0
    assert ds.combine_survival == 1.0

