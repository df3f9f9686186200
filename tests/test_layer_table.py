"""The benchmark's layer table names only functions that exist.

`perfbench/layers.py` wraps every function named in its SPANS table at
each place the nlie package binds it.  Deleting or renaming one of them
would break `perfbench/run.py --trace 1`, which only a minutes-long
benchmark run would otherwise show, and so would a span named in
run.py's EXERCISED table that the layer table lacks.  Both tables are
read from source without importing either file as a module, so nothing
is written under perfbench/.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUN = PERFBENCH / "run.py"


def _layers():
    mod = types.ModuleType("perfbench_layers")
    mod.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), mod.__dict__)
    return mod


layers = _layers()


@pytest.mark.parametrize("span", sorted(layers.SPANS))
def test_span_resolves_to_a_bound_nlie_function(span):
    module_name, paths = layers.SPANS[span]
    importlib.import_module(module_name)
    originals = layers._originals(module_name, paths)
    assert len(originals) == len(paths)
    for path, fn in zip(paths, originals):
        assert isinstance(fn, types.FunctionType), (span, path)
        assert fn.__module__ == module_name, (span, path)
        assert layers._bindings(fn), (span, path)


def _exercised():
    """run.py's EXERCISED literal, read from its syntax tree."""
    for node in ast.parse(RUN.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "EXERCISED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no EXERCISED table")


@pytest.mark.parametrize("workload, spans", sorted(_exercised().items()))
def test_exercised_spans_are_layer_spans(workload, spans):
    assert spans
    assert set(spans) <= set(layers.SPANS), sorted(set(spans) - set(layers.SPANS))
