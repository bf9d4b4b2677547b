"""Source hygiene checks that need no linter: only numpy and pytest are
required to run the suite."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsakit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _sources() -> dict[str, ast.Module]:
    """Every module of the package, ``__init__.py`` included, by file name."""
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


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


def _read_counts(node: ast.AST) -> Counter:
    """How many times each name is read under ``node``. A read is a loaded
    name or an attribute of that name; an import is not a read."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def _unread(trees: dict[str, ast.Module], definitions) -> list[str]:
    """The labels of the ``(label, name, node)`` definitions whose name is read
    nowhere in any module outside ``node`` (so recursion does not count)."""
    total = sum((_read_counts(tree) for tree in trees.values()), Counter())
    return [label for label, name, node in definitions
            if total[name] == _read_counts(node)[name]]


def _unread_definitions(trees: dict[str, ast.Module], selected) -> list[str]:
    """Module-level definitions for which ``selected(stmt, name)`` holds and
    that no statement of any module reads, other than the definition itself."""
    definitions = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            definitions += [(f"{module}: {name}", name, stmt)
                            for name in defined if selected(stmt, name)]
    return _unread(trees, definitions)


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` definitions that nothing reads."""
    return _unread_definitions(
        trees, lambda stmt, name: name.startswith("_") and not name.startswith("__"))


# Public functions that only the acceptance suite calls: the paper's random
# walk moments, its theoretical AR ACF and the inverse of differencing; and
# the whole-array simulators, whose private chunked forms the CLI streams
# through.
ACCEPTANCE_API = frozenset({"integrate", "random_walk_moments", "simulate_ar",
                            "simulate_random_walk", "theoretical_ar_acf"})


def _uncalled_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level public functions and classes that nothing reads, other
    than the acceptance suite's API."""
    return _unread_definitions(trees, lambda stmt, name: (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not name.startswith("_") and name not in ACCEPTANCE_API))


def test_every_private_module_name_is_used():
    assert _dead_private_names(_sources()) == []


def test_dead_private_name_is_reported():
    trees = {
        "a.py": ast.parse("_USED = 1\n_DEAD = 2\n__all__ = []\n\n"
                          "def _helper(x):\n    return _helper(x - 1) + _USED\n\n"
                          "def public():\n    return b._imported()\n"),
        "b.py": ast.parse("def _imported():\n    pass\n\nclass _Unused:\n    pass\n"),
    }
    assert _dead_private_names(trees) == ["a.py: _DEAD", "a.py: _helper", "b.py: _Unused"]


def test_every_public_function_is_called():
    assert _uncalled_public_names(_sources()) == []


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


def _uncalled_public_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Public methods and properties of the package's classes that nothing
    reads outside their own body, as ``module: Class.method``. Reads are
    matched by name alone, whatever the owner, as in ``_unread_definitions``."""
    return _unread(trees, [
        (f"{module}: {cls.name}.{stmt.name}", stmt.name, stmt)
        for module, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")])


def test_every_public_method_is_called():
    assert _uncalled_public_methods(_sources()) == []


def test_uncalled_public_method_is_reported():
    trees = {
        "a.py": ast.parse(
            "class Model:\n"
            "    def __init__(self):\n        self.fit()\n\n"
            "    def fit(self):\n        return self._helper()\n\n"
            "    def _helper(self):\n        return 1\n\n"
            "    @property\n    def order(self):\n        return 1\n\n"
            "    @property\n    def unread(self):\n        return 2\n\n"
            "    def again(self, n):\n        return self.again(n - 1)\n\n"
            "    @classmethod\n    def parse(cls, text):\n        return cls()\n\n"
            "    def shared(self):\n        return 0\n\n"
            "    class Inner:\n        def nested(self):\n            return 3\n"),
        "b.py": ast.parse("from a import Model\n\n"
                          "def use(m, header):\n    return m.order + header.shared()\n"),
    }
    assert _uncalled_public_methods(trees) == [
        "a.py: Model.unread", "a.py: Model.again", "a.py: Model.parse",
        "a.py: Inner.nested"]


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
    assert _dynamic_code_calls(_sources()) == ["armodel.py: _ar_recursion: exec"]


def test_dynamic_code_call_is_reported():
    tree = ast.parse("import re\nPATTERN = re.compile('x')\neval('1')\n\n"
                     "def outer():\n    def inner():\n"
                     "        return compile('1', '', 'eval')\n"
                     "    exec('pass', {}, {})\n    return inner\n\n"
                     "class K:\n    def method(self):\n        return self.exec(eval)\n")
    assert _dynamic_code_calls({"m.py": tree}) == [
        "m.py: <module>: eval", "m.py: outer.inner: compile", "m.py: outer: exec"]


_UNPACKED = object()  # a call's ``*args`` or ``**kwargs`` may set the parameter


def _one_value_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """Parameters of functions and methods that take one value in the package.
    A defaulted parameter qualifies when every call omits it or passes the
    default's own expression; one without a default, when there are calls and
    every one passes it as the same literal. Calls are matched by the
    function's bare name, and a call that unpacks ``*args`` or ``**kwargs``
    counts as setting every parameter it could reach. Each finding reads
    ``module: function(param)``."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def parameters(func, offset):
        """(name, position in a call or None, default or None) of each
        parameter after ``self`` or ``cls``."""
        positional = func.args.posonlyargs + func.args.args
        defaults = [None] * (len(positional) - len(func.args.defaults)) + func.args.defaults
        for index, (arg, default) in enumerate(zip(positional, defaults)):
            if index >= offset:
                yield arg.arg, index - offset, default
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            yield arg.arg, None, default

    def passed(call, name, position):
        """The expression a call passes for the parameter, None if it passes none."""
        if any(k.arg is None for k in call.keywords):
            return _UNPACKED
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        if position is None:
            return None
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return _UNPACKED if index <= position else None
            if index == position:
                return arg
        return None

    def is_literal(node):
        try:
            ast.literal_eval(node)
        except ValueError:
            return False
        return True

    def takes_one_value(name, position, default, func_calls):
        values = set() if default is None else {ast.dump(default)}
        for call in func_calls:
            value = passed(call, name, position) or default
            if value is None or value is _UNPACKED:
                return False
            dumped = ast.dump(value)
            if dumped not in values and not is_literal(value):
                return False
            values.add(dumped)
        return len(values) == 1

    found = []
    for module, tree in trees.items():
        methods = {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for stmt in node.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in func.decorator_list)
            offset = 1 if id(func) in methods and not static else 0  # self or cls
            for name, position, default in parameters(func, offset):
                if takes_one_value(name, position, default, calls.get(func.name, [])):
                    found.append(f"{module}: {func.name}({name})")
    return found


# ``main(argv)``: the console script calls main() and reads sys.argv, while the
# bench worker and the tests pass argv. ``polynomial_roots(max_iter)``: the
# oracle tests cap it at 1 and 5 to reach the iteration-cap and rounding-bound
# paths. ``difference(d)``: the acceptance suite calls difference(x, d) for
# d = 1..3. ``simulate_ar(burn_in)``: nothing in the package calls the
# whole-array simulator (see ACCEPTANCE_API); the tests set its burn-in.
ONE_VALUE_PARAMETER_EXEMPT = frozenset({
    "cli.py: main(argv)", "_linalg.py: polynomial_roots(max_iter)",
    "series.py: difference(d)", "armodel.py: simulate_ar(burn_in)"})


def test_no_one_value_parameter():
    found = _one_value_parameters(_sources())
    assert [f for f in found if f not in ONE_VALUE_PARAMETER_EXEMPT] == []


def test_one_value_parameter_is_reported():
    trees = {
        "a.py": ast.parse(
            "def f(x, y=1, z=None, *, w=True):\n    return x\n\n"
            "def g(x, k=2.0):\n    return f(x, 1, w=True)\n\n"
            "class C:\n    def m(self, a=0, b=0):\n        return g(a, *b)\n\n"
            "    @staticmethod\n    def s(a=0):\n        return a\n\n"
            "def h(n=3):\n    return h(n=4)\n\n"
            "def unpacked(u=1):\n    return unpacked(**{})\n\n"
            "def tail(x, dof, *, scale):\n    return x\n\n"
            "def order(p, k):\n    return p\n\n"
            "def run(v):\n    order(v, 1)\n    order(v, k=2)\n"
            "    tail(v, 2, scale=-1.0)\n    return tail(1, dof=2, scale=-1.0)\n"),
        "b.py": ast.parse("def caller(obj):\n    obj.m(5)\n    return obj.s(1)\n"),
    }
    assert _one_value_parameters(trees) == [
        "a.py: f(y)", "a.py: f(z)", "a.py: f(w)", "a.py: tail(dof)", "a.py: tail(scale)",
        "a.py: m(b)"]


def _unread_record_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Fields of ``@dataclass`` classes whose name is never loaded as an
    attribute anywhere in the package, as ``module: Class.field``. The check
    matches by name alone, whatever the owner, so an unread field that shares
    its name with a read attribute passes: an unread ``n`` beside ``fit.n``."""
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list))):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in loaded):
                    found.append(f"{module}: {cls.name}.{stmt.target.id}")
    return found


# The acceptance suite's record of the paper's random-walk moments.
UNREAD_FIELD_EXEMPT = "armodel.py: RandomWalkMoments."


def test_every_record_field_is_read():
    found = _unread_record_fields(_sources())
    assert [f for f in found if not f.startswith(UNREAD_FIELD_EXEMPT)] == []


def test_unread_record_field_is_reported():
    trees = {
        "a.py": ast.parse(
            "from dataclasses import dataclass\nimport dataclasses\n\n"
            "@dataclass(frozen=True)\nclass R:\n    used: int\n    unread: float\n"
            "    kind: str = 'x'\n\n"
            "@dataclasses.dataclass\nclass S:\n    other: int\n\n"
            "class Plain:\n    ignored: int\n\n"
            "def read(r, s):\n    r.unread = 1\n    return r.used, s.kind\n"),
    }
    assert _unread_record_fields(trees) == ["a.py: R.unread", "a.py: S.other"]


def _foreign_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Imports of anything but ``__future__``, the package itself (a relative
    import), numpy and the standard library, as ``module: line N: name``."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(module, node.lineno, name) for name in names
                      if name.split(".")[0] not in ("__future__", "numpy")
                      and name.split(".")[0] not in sys.stdlib_module_names]
    return [f"{module}: line {line}: {name}" for module, line, name in sorted(found)]


# numpy's numerical routines. The package implements these jobs itself and
# takes only arrays and arithmetic from numpy.
NUMPY_NUMERICS = frozenset({"linalg", "fft", "polynomial", "random", "roots",
                            "polyfit", "polyval", "interp"})


def _numpy_numerics(trees: dict[str, ast.Module]) -> list[str]:
    """Uses of ``NUMPY_NUMERICS``, as ``module: line N: numpy.name``: an
    import of one (``import numpy.fft``, ``from numpy.linalg import ...``,
    ``from numpy import random``) or an attribute of a name bound to numpy
    (``np.roots``)."""
    found = set()
    for module, tree in trees.items():
        bound = set()  # the names that hold numpy in this module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] != "numpy":
                        continue
                    if len(parts) > 1 and parts[1] in NUMPY_NUMERICS:
                        found.add((module, node.lineno, parts[1]))
                    if alias.asname is None or len(parts) == 1:
                        bound.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "numpy":
                    continue
                if len(parts) > 1:
                    names = parts[1:2]
                else:
                    names = [alias.name for alias in node.names]
                found |= {(module, node.lineno, name) for name in names
                          if name in NUMPY_NUMERICS}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in NUMPY_NUMERICS
                    and isinstance(node.value, ast.Name) and node.value.id in bound):
                found.add((module, node.lineno, node.attr))
    return [f"{module}: line {line}: numpy.{name}" for module, line, name in sorted(found)]


def test_imports_only_numpy_and_the_standard_library():
    assert _foreign_imports(_sources()) == []


def test_foreign_import_is_reported():
    trees = {"a.py": ast.parse(
        "from __future__ import annotations\nimport math, os.path\n"
        "import numpy as np\nimport scipy.stats\nfrom . import rng\n"
        "from .special import _horner\nfrom numpy.linalg import norm\n\n"
        "def f():\n    from mpmath import mp\n    import numba as nb\n"
        "    return mp, nb\n")}
    assert _foreign_imports(trees) == [
        "a.py: line 4: scipy.stats", "a.py: line 10: mpmath", "a.py: line 11: numba"]


def _nested_imports(trees: dict[str, ast.Module]) -> list[str]:
    """``import`` statements inside a function or class body, each as
    ``module: line N: enclosing scope``. A function-level import hides a
    dependency, often a cycle between modules, from the module's header."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and scope is not None:
                found.append(f"{module}: line {child.lineno}: {scope}")
            visit(child, module, inner)

    for module, tree in trees.items():
        visit(tree, module, None)
    return found


def test_no_function_level_import():
    assert _nested_imports(_sources()) == []


def test_function_level_import_is_reported():
    tree = ast.parse("import math\nif math.pi:\n    import os\n\n"
                     "def f():\n    from .armodel import _step_down\n"
                     "    def g():\n        import re\n        return re\n"
                     "    return _step_down, g\n\n"
                     "class K:\n    import json\n\n"
                     "    def method(self):\n        if self:\n"
                     "            from . import rng\n        return rng\n")
    assert _nested_imports({"m.py": tree}) == [
        "m.py: line 6: f", "m.py: line 8: f.g", "m.py: line 13: K",
        "m.py: line 17: K.method"]


def test_no_numpy_numerical_routines():
    assert _numpy_numerics(_sources()) == []


def test_numpy_numerical_routine_is_reported():
    trees = {
        "a.py": ast.parse(
            "import numpy as np\nimport numpy.fft\nfrom numpy import linalg, zeros\n"
            "from numpy.polynomial import polynomial as P\nimport numpy.random as npr\n\n"
            "def f(x, obj):\n    obj.roots(x)\n    np.sort(x)\n"
            "    return np.linalg.norm(x) + numpy.interp(x, x, x) + np.roots(x)\n"),
        "b.py": ast.parse("import numpy\n\nnumpy.polyfit([0], [0], 1)\nnumpy.polyval\n"
                          "from numpy.random import default_rng\n"),
        "c.py": ast.parse("import random\n\nrandom.random()\nnp = object()\n"),
    }
    assert _numpy_numerics(trees) == [
        "a.py: line 2: numpy.fft", "a.py: line 3: numpy.linalg",
        "a.py: line 4: numpy.polynomial", "a.py: line 5: numpy.random",
        "a.py: line 10: numpy.interp", "a.py: line 10: numpy.linalg",
        "a.py: line 10: numpy.roots", "b.py: line 3: numpy.polyfit",
        "b.py: line 4: numpy.polyval", "b.py: line 5: numpy.random"]
