"""Every example script still imports: a name an example uses at module
level that the package no longer exports fails here, not in a reader's
terminal.  Each script is loaded without running its ``__main__``
block, so the whole file costs well under a second."""

import glob
import os
import runpy

import pytest

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "examples", "*.py")))


def test_there_are_examples_to_load():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_loads(path):
    runpy.run_path(path, run_name="not_main")
