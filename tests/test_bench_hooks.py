"""The functions the benchmark harness wraps must keep resolving.

``perfbench/spans.py`` swaps timing wrappers into the attributes listed in
its ``SPANS`` table, and the workloads time ops at a few more entry points.
A refactor that renames or moves one of them breaks the harness; this test
catches that without running it.
"""

import importlib
import importlib.util
import os

import pytest

SPANS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
OP_BOUNDARIES = [
    ("hdffm.cli", "_bench_replication"),
    ("hdffm.cli", "_forecast_panel"),
    ("hdffm.forecast", "persistence_forecast"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name,path", [(m, p) for _, m, p in load_spans()] + OP_BOUNDARIES)
def test_hook_resolves(module_name, path):
    assert callable(resolve(module_name, path))
