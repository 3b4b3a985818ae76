"""Every (module, function) the benchmark tracer rebinds must exist on the
product path: ``perfbench/tracing.py`` looks each one up in ``sys.modules``
after importing the CLI, so a renamed or deleted function breaks traced runs."""

import ast
import importlib
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _function_spans():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTION_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("FUNCTION_SPANS not found in tracing.py")


def test_traced_functions_exist_after_importing_the_cli():
    importlib.import_module("poisson_chaos.cli")
    bindings = [(module, attr) for module, attr, _ in _function_spans()]
    bindings.append(("harness", "_run_chunk"))
    assert ("contractions", "contraction_norms") in bindings
    for module, attr in bindings:
        name = f"poisson_chaos.{module}"
        assert name in sys.modules, f"{name} is not loaded by the CLI"
        assert callable(getattr(sys.modules[name], attr, None)), f"{name}.{attr} is missing"


def test_one_replication_seed_call_per_replication_in_index_order(monkeypatch):
    # the tracer marks the spans of replication i by the second positional
    # argument of point_process.replication_seed, rebound in harness
    from poisson_chaos import harness

    calls = []
    seed = harness.replication_seed

    def counted(*args, **kwargs):
        calls.append(args)
        return seed(*args, **kwargs)

    monkeypatch.setattr(harness, "replication_seed", counted)
    harness.collect(_uniform_rep, None, 37, 5, workers=1)
    assert [a[1] for a in calls] == list(range(37))


def _uniform_rep(_cfg, rng):
    return rng.uniform()
