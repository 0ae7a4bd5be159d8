"""The benchmark traces named package functions; each must still exist."""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("module, function", _targets())
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"halmotor.{module}")
    assert callable(getattr(mod, function, None)), f"halmotor.{module}.{function}"


def test_traced_functions_are_distinct():
    """The tracer keys its swap table by id(function): two targets that
    resolve to one object would leave one of the two spans at 0 calls."""
    names = {}
    for module, function in _targets():
        fn = getattr(importlib.import_module(f"halmotor.{module}"), function)
        names.setdefault(id(fn), []).append(f"{module}.{function}")
    aliased = [group for group in names.values() if len(group) > 1]
    assert not aliased, f"traced names share one function: {aliased}"
