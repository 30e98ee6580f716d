"""Session-wide pytest settings for the qmzv test suites (tests/ and bench/)."""

from __future__ import annotations

import gc
import os
import sys

# The suites import qmzv from this checkout's src/ without an install; the
# `python -m qmzv` subprocesses of the tests find it through PYTHONPATH.
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def pytest_collection_finish(session):
    """Freeze what collection built, so later gc.collect() calls skip it.

    Importing the test modules (pytest, hypothesis, qmzv) leaves some 50,000
    objects that live for the whole session. The benchmark's traversal calls
    gc.collect() before every request, with the speedometer's timer already
    running; walking that heap takes about a timer period on a 2-core VM, so
    a speed sample would land outside the request being measured. Frozen
    objects are never collected, which they would not be anyway.
    """
    gc.collect()
    gc.freeze()
