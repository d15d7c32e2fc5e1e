"""The benchmark's span tracer still finds every function it traces.

perfbench/tracer.py wraps package functions by name and refuses to start
when one is missing, so a change that deletes or renames a traced
function fails here, in the package's own tests, and not first when the
benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    try:
        built = tracer.Tracer()
    except tracer.TracerError as exc:
        pytest.fail(f"the benchmark's tracer cannot start: {exc}")
    assert len(built._targets) == len(tracer.TARGETS)
