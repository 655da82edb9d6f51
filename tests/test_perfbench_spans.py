"""The traced benchmark patches mto1 by name: every span it lists must still
resolve, or the traced run fails (or silently measures nothing)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("name", sorted(SPANS.SPANS))
def test_every_span_resolves_on_mto1(name):
    modname, attr = SPANS.SPANS[name]
    assert modname.startswith("mto1.")
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {modname}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_metric_span_sets_name_listed_spans():
    for group in (SPANS.ORACLE, SPANS.MAPPING, SPANS.REVERIFY):
        assert group <= set(SPANS.SPANS)


def test_tracer_installs_and_restores_every_span():
    import mto1.cyclotomic as cyclotomic
    before = cyclotomic.brute_verdict_star
    with SPANS.Tracer():
        assert cyclotomic.brute_verdict_star is not before
    assert cyclotomic.brute_verdict_star is before
