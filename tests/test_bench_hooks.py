"""The package names that the benchmark in ``perfbench/`` reads still resolve.

``perfbench`` traces and inspects private package attributes by name, so a
rename or deletion in ``src/`` passes every other test and fails every
benchmark operation.  The traced spans are read from ``perfbench/tracer.py``
as source: this module neither imports nor depends on the benchmark.
"""

import ast
import importlib
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "tracer.py"

# names the tracer's install() and the benchmark child read besides SPANS
OTHER_HOOKS = (
    ("limitlaw", "sample_limit_law"),
    ("limitlaw", "_bvnu_vec"),
    ("limitlaw", "_bvnu_scalar"),
    ("streams", "ndtri"),
    ("cli", "main"),
    ("cli", "run_experiment"),
)


def _tracer_spans():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no SPANS")


def test_traced_spans_resolve():
    spans = _tracer_spans()
    assert spans
    for name, module, attr in spans:
        fn = getattr(importlib.import_module(f"w2gauss.{module}"), attr, None)
        assert callable(fn), (name, module, attr)


def test_other_hooks_resolve():
    for module, attr in OTHER_HOOKS:
        mod = importlib.import_module(f"w2gauss.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)


def test_cold_cache_checks_resolve():
    from w2gauss import limitlaw, wasserstein
    # the benchmark's cold-cache check and its wasserstein.tables span
    # watch the one cell table through this alias
    assert wasserstein._boundary_tables is wasserstein._cell_tables
    assert wasserstein._boundary_tables.cache_info().currsize >= 0
    assert isinstance(limitlaw._factor_cache, dict)
