"""The package carries no dead weight, and the benchmark sees what it traces.

Every module-level import is used by its own module, no module loads
numpy when it is imported, and every top-level function, class and method
is named by the package or by the benchmark.  Every binding that
perfbench/spans.py wraps is the traced function itself, and the command
line calls each one through that binding.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbifloer"
PERFBENCH = ROOT / "perfbench"

# (module, name) pairs bound for other code, not for the module itself
KEPT = {
    # the package re-exports its root error type
    ("__init__", "OrbifloerError"),
}


def unused_imports(path: Path) -> list:
    """Names bound by top-level imports of a module that no Name node reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in KEPT]
    assert unused == []


def test_kept_imports_are_still_unused_otherwise():
    # an entry that the module starts to use itself is no longer an exception
    for module, name in KEPT:
        assert name in unused_imports(SRC / f"{module}.py")


def import_time_modules(path: Path) -> list:
    """Top-level names of the modules a module imports when it is imported.

    Every import statement counts except those inside a function body,
    which run only when the function is called; class bodies and
    module-level if and try blocks run at import.
    """
    out = []
    todo = list(ast.parse(path.read_text(), filename=str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            out += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
        todo += ast.iter_child_nodes(node)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_numpy_when_imported(path):
    # numpy is loaded by the first float search of a request, not by the
    # import of the package: most requests are exact and never need it
    assert "numpy" not in import_time_modules(path)


# (module, qualified name) pairs defined for callers outside the package
FOR_OUTSIDE = {
    # the README documents it as a paper result
    ("potential", "wp_central_critical"),
    # argparse calls it on a bad command line
    ("cli", "_Parser.error"),
}


def definitions(path: Path) -> list:
    """Qualified names of a module's top-level functions and classes and of
    its classes' methods.

    Dunder methods are left out: Python calls them by protocol, not by name.
    """
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.append(node.name)
            methods = [sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)]
            out += [f"{node.name}.{m}" for m in methods if not (m.startswith("__") and m.endswith("__"))]
    return out


def names_read(paths) -> set:
    """Every name and attribute name that appears in the given files."""
    out = set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def spans_table() -> dict:
    """perfbench/spans.py's SPANS table, read without importing it: {span name: calling modules}."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return {
                ast.literal_eval(key): ast.literal_eval(value.elts[0])
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("perfbench/spans.py has no SPANS table")


def traced_names() -> set:
    """The function names perfbench/spans.py wraps: the key tails of its SPANS table."""
    return {name.split(".", 1)[1] for name in spans_table()}


def test_traced_callers_bind_the_home_function():
    # the tracer wraps the name in each calling module; a caller without
    # the binding breaks Tracer.install, and one bound to another object
    # records a span that is not the function's
    wrong = []
    for name, callers in spans_table().items():
        home, attr = name.split(".", 1)
        fn = getattr(importlib.import_module(f"orbifloer.{home}"), attr)
        for caller in callers:
            if getattr(importlib.import_module(f"orbifloer.{caller}"), attr, None) is not fn:
                wrong.append((name, caller))
    assert wrong == []


def test_cli_calls_every_traced_name_through_its_binding(tmp_path, monkeypatch, capsys):
    # a reference captured at import (in a table, a default argument or a
    # closure) keeps running after the tracer rebinds the module name, and
    # its span silently reads 0 calls
    from orbifloer import cli

    calls = Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    traced = [name.split(".", 1)[1] for name, callers in spans_table().items() if "cli" in callers]
    for attr in traced:
        monkeypatch.setattr(cli, attr, counted(attr, getattr(cli, attr)))
    bulk = tmp_path / "bulk.json"
    bulk.write_text(json.dumps({"sectors": [{"nu": [1], "c": "1", "lambda": "7/15"}]}))
    fiber = ["--preset", "teardrop:3", "--u", "1/10"]
    requests = [["region", "--preset", "teardrop:3", "--u", "1/4"], ["discs", *fiber], ["box", "--preset", "teardrop:3"]]
    for kind in ("lte", "critical", "potential"):
        requests += [[kind, *fiber], [kind, *fiber, "--bulk", str(bulk)]]
    for argv in requests:
        assert cli.main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert [attr for attr in traced if not calls[attr]] == []


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    sources = sorted(SRC.glob("*.py"))
    benchmark = [p for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
    used = names_read(sources + benchmark) | traced_names()
    unused = [
        (path.stem, name)
        for path in sources
        for name in definitions(path)
        if name.rsplit(".", 1)[-1] not in used and (path.stem, name) not in FOR_OUTSIDE
    ]
    assert unused == []


def test_definitions_kept_for_outside_callers_still_need_the_exception():
    used = names_read(sorted(SRC.glob("*.py")))
    for module, name in FOR_OUTSIDE:
        assert name in definitions(SRC / f"{module}.py")
        assert name.rsplit(".", 1)[-1] not in used
