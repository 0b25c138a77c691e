"""No public name and no optional parameter in totref that only the tests reach.

Every public top-level function or class of a totref module, and every
public method of its classes, must be used in the package itself or in
perfbench/.  Re-exports in __init__.py do not count.  A use is read off
the syntax tree: a name, an attribute or an imported name, never a word
inside a string.  The functions that perfbench/tracer.py wraps, listed by
qualified name in its SPANS and LEAVES tables, count as used too.  Methods
are matched by name alone, so a method counts as used wherever an
attribute of that name is read or the name is imported, but never through
a bare name such as a local variable.

Every parameter with a default, of any function or method in the package,
public or private, must likewise be passed, by position or by keyword, at
some call in the package or in perfbench/.  Callees are matched by name,
a class name stands for the class's ``__init__``, and calls that splat
``*args`` or ``**kwargs`` are skipped.  The other way round, every call in
perfbench/ to a name imported from totref must fit the callee's signature.

Outside modules.py no call factors a presentation's rho: a presented
module's ``relations`` is the one factorization of it.  Likewise zerodiv.py
factors nothing outside the construction of the quotients an exact pair
holds: every ideal question reads their relations, and homcalc.py factors
nothing but the vectorised map spans of _vec_span.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "totref"
PERFBENCH = ROOT / "perfbench"

# entry points called from outside the package, as module.qualname:
# cli.main is the console script of pyproject.toml
ENTRY_POINTS = {"cli.main"}

# optional parameters kept although no package call passes them, as
# module.qualname(parameter): the test oracles build graded elements
# term by term with a coefficient
UNPASSED_ALLOWED = {"rings.GradedMonomialRing.monomial_element(coeff)"}


def _definitions():
    """(module.qualname, name, is a method) of every public function, class
    and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", \
                            item.name, True


def _names_used(source: str) -> tuple[set, set]:
    """The bare names, and the attributes and imported names, read in
    source."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.add(node.name.rpartition(".")[2])
    return names, attributes


def _traced() -> set:
    spec = importlib.util.spec_from_file_location("tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{qualname}"
            for table in (tracer.SPANS, tracer.LEAVES)
            for module, entries in table.items() for qualname in entries}


def test_every_traced_name_resolves():
    # Tracer.install() getattrs each name, so a rename would break only
    # a traced benchmark run
    traced = _traced()
    assert len(traced) > 20  # the tables were read
    for name in sorted(traced):
        module, _, qualname = name.partition(".")
        owner = importlib.import_module(f"totref.{module}")
        for attr in qualname.split("."):
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)


def test_strings_are_not_uses():
    names, attributes = _names_used(
        'from .rings import scope_of\n'
        'raise WrongBackend("graded_basis needs graded")\n'
        'ring.enumerate_carrier()\n')
    used = names | attributes
    assert {"scope_of", "WrongBackend", "enumerate_carrier"} <= used
    assert "graded_basis" not in used


def test_a_bare_name_is_not_a_method_use():
    # a loop variable named like a method does not call the method
    names, attributes = _names_used("for element in gens:\n"
                                    "    ring.parse(element)\n")
    assert "element" in names and "element" not in attributes
    assert "parse" in attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    names, attributes = set(), set()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        found = _names_used(path.read_text(encoding="utf-8"))
        names |= found[0]
        attributes |= found[1]
    traced = _traced()
    definitions = list(_definitions())
    assert len(definitions) > 100  # the scan sees the package
    unused = [qualname for qualname, name, method in definitions
              if name not in attributes and (method or name not in names)
              and qualname not in traced and qualname not in ENTRY_POINTS]
    assert unused == []


def _optional_parameters():
    """(module.qualname(parameter), callee name, position or None, keyword)
    for every parameter with a default; the position counts the call's
    positional arguments, so it skips self and cls, and is None for a
    keyword-only parameter."""
    def visit(node, path, stem, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, path + [child.name], stem, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from params(child, path, stem, cls)
                yield from visit(child, path + [child.name], stem, None)

    def params(fn, path, stem, cls):
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if cls is not None and not static else 0
        callee = cls if fn.name == "__init__" and cls else fn.name
        qualname = ".".join([stem] + path + [fn.name])
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            yield (f"{qualname}({positional[k].arg})", callee, k - skip,
                   positional[k].arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qualname}({arg.arg})", callee, None, arg.arg

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from visit(tree, [], path.stem, None)


def _calls(source: str):
    """(callee name, positional count, keyword names) of each call that
    splats nothing."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) \
                or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        func = node.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            name = func.id if isinstance(func, ast.Name) else func.attr
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_optional_parameter_is_passed_somewhere():
    passed_at = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for name, count, keywords in _calls(path.read_text(encoding="utf-8")):
            positions, names = passed_at.setdefault(name, (set(), set()))
            positions.add(count)
            names |= keywords
    optional = list(_optional_parameters())
    assert len(optional) > 30  # the scan sees the package
    unpassed = []
    for qualname, callee, position, keyword in optional:
        positions, names = passed_at.get(callee, ((), ()))
        by_position = position is not None and any(
            count > position for count in positions)
        if not by_position and keyword not in names:
            unpassed.append(qualname)
    assert sorted(set(unpassed) - UNPASSED_ALLOWED) == []
    assert UNPASSED_ALLOWED <= set(unpassed)  # no stale allowance


def test_perfbench_calls_fit_the_signatures_they_call():
    # the reverse of the test above: perfbench/ changes only with the
    # benchmark, so a parameter dropped from a function it calls would
    # show only as a failed benchmark run
    calls = bad = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}  # name -> the totref function, class or module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level \
                    and node.module.partition(".")[0] == "totref":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = alias.name
                    imported[alias.asname or name] = \
                        getattr(module, name, None) or \
                        importlib.import_module(f"{node.module}.{name}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) \
                    or any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = imported.get(func.id)
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and inspect.ismodule(imported.get(func.value.id)):
                callee = getattr(imported[func.value.id], func.attr, None)
                assert callee is not None, (path.name, func.attr)
            else:
                continue
            # exception classes take any arguments and have no signature
            if callee is None or inspect.ismodule(callee) or (
                    isinstance(callee, type)
                    and issubclass(callee, BaseException)):
                continue
            calls += 1
            try:
                inspect.signature(callee).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                bad += 1
                print(f"{path.name}:{node.lineno}: {exc}")
    assert calls >= 8  # the scan sees the workloads' calls
    assert bad == 0


def _rho_factorizations(source: str) -> list:
    """The lines of source that call Factored on some m.rho, with or
    without .without_degrees(), and the number of Factored calls seen."""
    lines, seen = [], 0
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        if name != "Factored":
            continue
        seen += 1
        for arg in node.args + [k.value for k in node.keywords]:
            if isinstance(arg, ast.Call) and not arg.args \
                    and isinstance(arg.func, ast.Attribute) \
                    and arg.func.attr == "without_degrees":
                arg = arg.func.value
            if isinstance(arg, ast.Attribute) and arg.attr == "rho":
                lines.append(node.lineno)
    return lines, seen


def test_presentations_are_factored_only_as_module_relations():
    # a presented module's relations are the one factorization of its rho;
    # only modules.py builds it, everything else asks module.relations
    assert _rho_factorizations(
        "Factored(m.rho)\nlinalg.Factored(m.rho.without_degrees(), 8)\n"
        "Factored(m.rho.transpose())\nFactored(rho)\n") == ([1, 2], 4)
    seen = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "modules.py":
            continue
        lines, count = _rho_factorizations(path.read_text(encoding="utf-8"))
        seen += count
        assert lines == [], path.name
    assert seen > 5  # the scan sees the package's factorizations


def _factoring_calls(source: str, allowed) -> list:
    """The lines of source that call kernel_gens, solve_right or Factored
    outside the functions named in allowed."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in ("kernel_gens", "solve_right", "Factored"):
                lines.append(node.lineno)
    return lines


def test_zerodiv_factors_only_the_quotients_a_pair_holds():
    held = {"quotient_x", "quotient_y", "quotient_xy"}
    assert _factoring_calls(
        "def quotient_x(self):\n    return Factored(row)\n"
        "def other(row):\n    kernel_gens(row)\n"
        "    linalg.solve_right(row, row)\n", held) == [4, 5]
    source = (PACKAGE / "zerodiv.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert held <= defined  # the scan knows the pair's quotients
    assert _factoring_calls(source, held) == []


def _unspanned_factorizations(source: str) -> list:
    """The lines of source that call Factored on anything but a direct
    _vec_span(...) call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) != "Factored":
            continue
        args = node.args + [k.value for k in node.keywords]
        if not (len(args) == 1 and isinstance(args[0], ast.Call)
                and getattr(args[0].func, "id", None) == "_vec_span"):
            lines.append(node.lineno)
    return lines


def test_homcalc_factors_only_vectorised_map_spans():
    # every other matrix homcalc solves against is a presentation, F_x^T
    # among them, and is reached only as its module's relations
    assert _unspanned_factorizations(
        "Factored(_vec_span(s, t, maps))\nlinalg.Factored(f_t)\n"
        "Factored(phi.transpose() * m.rho)\nFactored(_vec_span(s, t, m), 8)\n"
        "Factored(other._vec_span(s, t, maps))\n") == [2, 3, 4, 5]
    source = (PACKAGE / "homcalc.py").read_text(encoding="utf-8")
    assert source.count("Factored(_vec_span(") >= 3  # the scan sees them
    assert _unspanned_factorizations(source) == []


def test_no_module_of_the_package_imports_numpy():
    """Both backends run on Python integers, so no module imports numpy."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10  # the scan sees the package
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0]
                             for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
        assert "numpy" not in imported, path.name


def test_importing_the_command_line_loads_no_numpy():
    # a fresh interpreter: the test process itself has numpy loaded
    code = "import sys, totref.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def _limit_escapes(source: str) -> list:
    """The lines of source that build a TooLarge or read the environment
    (os.environ, os.getenv, or either imported from os)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "TooLarge":
                lines.add(node.lineno)
        elif getattr(node, "attr", getattr(node, "name", None)) in (
                "environ", "getenv"):
            lines.add(node.lineno)
    return sorted(lines)


def test_every_size_limit_is_refused_by_the_one_helper():
    # errors.LIMITS holds every cap and budget, errors.check_size is the
    # one place that raises TooLarge past them, and no limit is read from
    # the environment, so one command line gives one output
    assert _limit_escapes(
        "raise TooLarge('x')\nerrors.TooLarge()\nos.environ.get('A')\n"
        "os.getenv('A')\nfrom os import environ\nTooLarge\n"
        "'os.environ'\n") == [1, 2, 3, 4, 5]
    seen = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        seen += source.count("check_size(")
        lines = _limit_escapes(source)
        if path.name == "errors.py":
            tree = ast.parse(source)
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "check_size")
            assert lines == [helper.body[-1].body[0].lineno]
        else:
            assert lines == [], path.name
    assert seen >= 8  # the scan sees the helper's callers
