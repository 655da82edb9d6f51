"""The benchmark's verify-families workload names its families by hand: it
must run every verify family except main, which verify-main runs."""

import importlib.util
import sys
from pathlib import Path

from mto1.harness import FAMILIES

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_verify_families_workload_covers_every_family_but_main():
    families = load_workloads().FAMILIES
    assert len(families) == len(set(families))
    assert set(families) == set(FAMILIES) - {"main"}
