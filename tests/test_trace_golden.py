"""Golden traces: exported traces and metrics stay byte-for-byte fixed.

Two small traced runs, an Edison 1/8 web cell and a ``pi`` job on four
Edison slaves, are rendered to JSON-lines, CSV, a metrics snapshot and
a few derived views (the Chrome trace's hash, the causal forest's
shape, the latency flame's collapsed stacks).  The rendered bytes must
equal the files under ``tests/golden/``, so any change to how the
tracer stores or emits events that alters a single exported digit
fails here.  The JSONL and CSV goldens are gzip-compressed; the
comparison is of the decompressed bytes.

To re-record after an intended change to the trace format, run
``PYTHONPATH=src python tests/test_trace_golden.py`` from the
repository root and review the diff.
"""

import dataclasses
import gzip
import hashlib
import json
import os
import sys

import pytest

from repro.causality import (build_forest, decomposition_from_critical_paths,
                             latency_stacks)
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.trace import Tracer, to_chrome_trace, write_csv, write_jsonl
from repro.web import WebServiceDeployment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def _web_cell(tracer):
    WebServiceDeployment("edison", "1/8", seed=20160901,
                         trace=tracer).run_level(8, duration=2.0, warmup=0.5)


def _pi_job(tracer):
    spec, config = JOB_FACTORIES["pi"]("edison", 4)
    JobRunner("edison", 4, config=config, seed=20160901,
              trace=tracer).run(spec)


CASES = {"web_edison_1of8": _web_cell, "job_pi_edison_4": _pi_job}


def render(case, out_dir):
    """Run ``case`` traced and return ``{golden file name: bytes}``."""
    tracer = Tracer()
    CASES[case](tracer)
    log = tracer.log
    jsonl = os.path.join(out_dir, f"{case}.jsonl")
    csv_path = os.path.join(out_dir, f"{case}.csv")
    write_jsonl(log, jsonl)
    write_csv(log, csv_path)
    forest = build_forest(log)
    derived = {
        "events": len(log),
        "accepted": log.accepted,
        "chrome_sha256": hashlib.sha256(json.dumps(
            to_chrome_trace(log)).encode("utf-8")).hexdigest(),
        "forest": {"roots": len(forest.roots), "spans": len(forest.by_id),
                   "orphans": len(forest.orphans)},
        "latency_stacks": latency_stacks(forest),
    }
    if case.startswith("web"):
        derived["critical_path_decomposition"] = dataclasses.asdict(
            decomposition_from_critical_paths(log, after=0.5, forest=forest))
    with open(jsonl, "rb") as handle:
        jsonl_bytes = handle.read()
    with open(csv_path, "rb") as handle:
        csv_bytes = handle.read()
    return {
        f"{case}.jsonl": jsonl_bytes,
        f"{case}.csv": csv_bytes,
        f"{case}.metrics.json": (json.dumps(tracer.metrics.snapshot(),
                                            indent=1) + "\n").encode("utf-8"),
        f"{case}.derived.json": (json.dumps(derived, indent=1)
                                 + "\n").encode("utf-8"),
    }


def _golden_path(name):
    compressed = name.endswith((".jsonl", ".csv"))
    return os.path.join(GOLDEN_DIR, name + (".gz" if compressed else ""))


def _read_golden(name):
    path = _golden_path(name)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_outputs_match_golden(case, tmp_path):
    for name, produced in render(case, str(tmp_path)).items():
        expected = _read_golden(name)
        if produced != expected:
            produced_lines = produced.splitlines()
            expected_lines = expected.splitlines()
            first = next((i for i, (a, b) in enumerate(
                zip(produced_lines, expected_lines)) if a != b),
                min(len(produced_lines), len(expected_lines)))
            pytest.fail(f"{name} differs from its golden at line "
                        f"{first + 1} ({len(produced_lines)} lines produced, "
                        f"{len(expected_lines)} expected)")


def record(out_dir=GOLDEN_DIR):
    """Re-render every golden file into ``out_dir``."""
    import tempfile
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for name, data in render(case, scratch).items():
                path = os.path.join(out_dir, os.path.basename(
                    _golden_path(name)))
                if path.endswith(".gz"):
                    # mtime=0 and no file name keep the archive
                    # byte-deterministic across re-recordings.
                    with open(path, "wb") as raw, gzip.GzipFile(
                            filename="", mode="wb", fileobj=raw,
                            compresslevel=9, mtime=0) as handle:
                        handle.write(data)
                else:
                    with open(path, "wb") as handle:
                        handle.write(data)
                print(f"recorded {path}")


if __name__ == "__main__":
    record(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR)
