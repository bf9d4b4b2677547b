"""Source hygiene checks that need no linter: only numpy and pytest are
required to run the suite."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsakit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_reported():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import numpy as np\nfrom a.b import c, d as e\nnp.zeros(e)\n")
    assert _unused_imports(tree) == ["line 2: os", "line 4: c"]


def _unread_definitions(trees: dict[str, ast.Module], selected) -> list[str]:
    """Module-level definitions for which ``selected(stmt, name)`` holds and
    that no statement of any module reads, other than the definition itself
    (so recursion does not count). A read is a loaded name or an attribute
    of that name; an import is not a read."""
    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    reads = []
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        reads.append(names)
    unread = []
    for index, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if (selected(stmt, name)
                    and not any(name in r for i, r in enumerate(reads) if i != index)):
                unread.append(f"{module}: {name}")
    return unread


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` definitions that nothing reads."""
    return _unread_definitions(
        trees, lambda stmt, name: name.startswith("_") and not name.startswith("__"))


# Public functions that only the acceptance suite calls: the paper's random
# walk moments, its theoretical AR ACF and the inverse of differencing.
ACCEPTANCE_API = frozenset({"integrate", "random_walk_moments", "theoretical_ar_acf"})


def _uncalled_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level public functions and classes that nothing reads, other
    than the acceptance suite's API."""
    return _unread_definitions(trees, lambda stmt, name: (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not name.startswith("_") and name not in ACCEPTANCE_API))


def test_every_private_module_name_is_used():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_dead_private_name_is_reported():
    trees = {
        "a.py": ast.parse("_USED = 1\n_DEAD = 2\n__all__ = []\n\n"
                          "def _helper(x):\n    return _helper(x - 1) + _USED\n\n"
                          "def public():\n    return b._imported()\n"),
        "b.py": ast.parse("def _imported():\n    pass\n\nclass _Unused:\n    pass\n"),
    }
    assert _dead_private_names(trees) == ["a.py: _DEAD", "a.py: _helper", "b.py: _Unused"]


def test_every_public_function_is_called():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert _uncalled_public_names(trees) == []


def test_uncalled_public_name_is_reported():
    trees = {
        "__init__.py": ast.parse("from .a import dead, used\n"),
        "a.py": ast.parse("CONSTANT = 1\n\ndef used():\n    return b.Model()\n\n"
                          "def dead(n):\n    return dead(n - 1)\n\n"
                          "def integrate(x):\n    return x\n\n"
                          "def caller():\n    return used()\n"),
        "b.py": ast.parse("class Model:\n    pass\n\nclass Orphan:\n    pass\n"),
    }
    assert _uncalled_public_names(trees) == ["a.py: dead", "a.py: caller", "b.py: Orphan"]


def _dynamic_code_calls(trees: dict[str, ast.Module]) -> list[str]:
    """Calls of the builtins ``exec``, ``eval`` and ``compile`` by bare name,
    each as ``module: enclosing scope: builtin``. Attribute calls such as
    ``re.compile`` do not count."""
    calls = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in ("exec", "eval", "compile")):
                calls.append(f"{module}: {scope}: {child.func.id}")
            visit(child, module, inner)

    for module, tree in trees.items():
        visit(tree, module, "<module>")
    return calls


def test_only_the_ar_recursion_compiles_code():
    # The AR simulator compiles its recursion from the integer order alone;
    # any other generated code in the package needs the same scrutiny.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert _dynamic_code_calls(trees) == ["armodel.py: _ar_recursion: exec"]


def test_dynamic_code_call_is_reported():
    tree = ast.parse("import re\nPATTERN = re.compile('x')\neval('1')\n\n"
                     "def outer():\n    def inner():\n"
                     "        return compile('1', '', 'eval')\n"
                     "    exec('pass', {}, {})\n    return inner\n\n"
                     "class K:\n    def method(self):\n        return self.exec(eval)\n")
    assert _dynamic_code_calls({"m.py": tree}) == [
        "m.py: <module>: eval", "m.py: outer.inner: compile", "m.py: outer: exec"]
