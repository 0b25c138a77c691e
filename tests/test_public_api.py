"""No public name in totref that only the tests reach.

Every public top-level function or class of a totref module, and every
public method of its classes, must be used in the package itself or in
perfbench/.  Re-exports in __init__.py do not count.  A use is read off
the syntax tree: a name, an attribute or an imported name, never a word
inside a string.  The functions that perfbench/tracer.py wraps, listed by
qualified name in its SPANS and LEAVES tables, count as used too.  Methods
are matched by name alone, so a method counts as used wherever an
attribute of that name is read.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "totref"
PERFBENCH = ROOT / "perfbench"

# entry points called from outside the package, as module.qualname:
# cli.main is the console script of pyproject.toml
ENTRY_POINTS = {"cli.main"}


def _definitions():
    """(module.qualname, name) of every public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", \
                            item.name


def _names_used(source: str) -> set:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _traced() -> set:
    spec = importlib.util.spec_from_file_location("tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{qualname}"
            for table in (tracer.SPANS, tracer.LEAVES)
            for module, entries in table.items() for qualname in entries}


def test_strings_are_not_uses():
    used = _names_used('from .rings import scope_of\n'
                       'raise WrongBackend("graded_basis needs graded")\n'
                       'ring.enumerate_carrier()\n')
    assert {"scope_of", "WrongBackend", "enumerate_carrier"} <= used
    assert "graded_basis" not in used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        used |= _names_used(path.read_text(encoding="utf-8"))
    traced = _traced()
    definitions = list(_definitions())
    assert len(definitions) > 100  # the scan sees the package
    unused = [qualname for qualname, name in definitions
              if name not in used and qualname not in traced
              and qualname not in ENTRY_POINTS]
    assert unused == []
