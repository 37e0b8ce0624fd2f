"""The traced benchmark run wraps scx functions by name: each name it lists
must still resolve, or the traced run stops with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("prefix, module_name, attr, extra", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(prefix, module_name, attr, extra):
    # looked up as Tracer.install does: a class by attribute, then __dict__
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert callable(owner.__dict__[attr])
