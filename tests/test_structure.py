"""Package structure: each command builds one line table, and no private
name of `config`, `quantities` or `studio` is used outside its module."""
import ast
import sys
from pathlib import Path

import pytest

from halmotor import cli, quantities, studio, verify

from conftest import make_case

SRC = Path(__file__).resolve().parents[1] / "src" / "halmotor"
GUARDED = ("config", "quantities", "studio")


@pytest.fixture
def table_calls(monkeypatch):
    """Count `quantities.line_table` calls, wherever halmotor binds it."""
    calls = []
    original = quantities.line_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("halmotor") and getattr(mod, "line_table", None) is original:
            monkeypatch.setattr(mod, "line_table", counted)
    return calls


@pytest.mark.parametrize("command", ["force", "emf"])
def test_force_and_emf_build_one_table(config_path, tmp_path, table_calls, command):
    assert cli.main([command, "--config", str(config_path), "--out",
                     str(tmp_path), "--nt", "24"]) == 0
    assert len(table_calls) == 1


def test_power_balance_check_builds_one_table(trunc, table_calls):
    design = make_case(2, back_iron=False)
    verify.verify_design(design, trunc, skip_fd=True)
    assert len(table_calls) == 1


def test_each_design_point_builds_one_table(table1, table_calls):
    obj = studio.ObjectiveConfig(w_thd=0.1, w_ripple=0.1)
    result = studio.sweep(table1, studio.StageSpec(), obj,
                          {"h_c": [0.002, 0.004, 0.006]})
    assert len(table_calls) == len(result.table) == 3
    assert sorted(d.h_c for d in table_calls) == [0.002, 0.004, 0.006]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The halmotor submodule a from-import reads, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("halmotor."):
        return node.module.removeprefix("halmotor.")
    return None


def private_uses(here: str, source: str) -> list[str]:
    """Private names of the guarded modules that module `here` imports or
    reads as attributes of an imported module."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _imported_module(node)
        if module in GUARDED and module != here:
            found += [f"{here}:{node.lineno} imports {module}.{a.name}"
                      for a in node.names if _private(a.name)]
        elif module is None and node.level == 1:  # from . import quantities
            aliases |= {a.asname or a.name for a in node.names
                        if a.name in GUARDED and a.name != here}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{here}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_private_name_leaves_quantities_or_studio():
    leaks = [leak for path in sorted(SRC.glob("*.py"))
             for leak in private_uses(path.stem, path.read_text(encoding="utf-8"))]
    assert leaks == []


def test_private_use_check_catches_a_leak():
    planted = ("from .quantities import _synthesize, line_table\n"
               "from . import studio as s\n"
               "cap = s._AXES\n")
    assert private_uses("cli", planted) == ["cli:1 imports quantities._synthesize",
                                            "cli:3 reads s._AXES"]
    assert private_uses("quantities", "from .config import _SLOT_PHASES\n") == [
        "quantities:1 imports config._SLOT_PHASES"]
    # a module's own private names are its business
    assert private_uses("studio", "from . import studio\nstudio._AXES\n") == []
