"""Every module-level import of the package is used by its own module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "orbifloer"

# (module, name) pairs bound for other code, not for the module itself
KEPT = {
    # the package re-exports its root error type
    ("__init__", "OrbifloerError"),
    # perfbench/spans.py times lts_signature through region's binding
    ("region", "lts_signature"),
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
