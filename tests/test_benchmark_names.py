"""The functions the benchmark's traced run looks up by name must exist.

`perfbench/run.py` reads one metric per name in SPAN_METRICS and
LEAF_METRICS, and `fragsim._block_stream` through the tracer's counted
leaves; a renamed or moved function raises KeyError only at the end of a
traced benchmark run.  This test reads the benchmark's source and never
imports or runs it.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def benchmark_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text())
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPAN_METRICS", "LEAF_METRICS"):
                consts[target.id] = ast.literal_eval(node.value)
    spans = [name for name, _ in consts["SPAN_METRICS"]]
    return spans + list(consts["LEAF_METRICS"]) + ["fragsim._block_stream"]


@pytest.mark.parametrize("name", benchmark_names())
def test_name_is_a_package_function(name):
    # The tracer wraps only functions defined in the module it patches.
    layer, func = name.split(".")
    module = importlib.import_module(f"fragstop.{layer}")
    fn = getattr(module, func, None)
    assert callable(fn) and not isinstance(fn, type), name
    assert fn.__module__ == module.__name__, name
