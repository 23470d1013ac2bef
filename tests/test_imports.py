"""Every name a source module imports is used in that module, every
private module-level function or class is used somewhere in the package,
no module-level name is defined in two modules, and only
``bitcore.check_int`` asks whether a value is an integer."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bitflow"


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads, except
    ``__future__`` features and names listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os, numpy as np\n"
    source += "from a import b, c\nc(np)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: b"]


def unreferenced_private_defs(sources: dict) -> list:
    """Private (one leading underscore) module-level functions and classes
    of ``sources`` (module name -> source) that no name or attribute in any
    of the sources reads. A name is matched across modules, not resolved."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{m} line {line}: {name}" for m, line, name in defined if name not in used)


def test_no_unreferenced_private_defs():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_checker_flags_an_unreferenced_private_def():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
        "def _by_attr(): pass\ndef public(): pass\ndef __dunder__(): pass\n",
        "b": "from . import a\nfrom .a import _used\n_used(a._by_attr)\n",
    }
    assert unreferenced_private_defs(sources) == ["a line 2: _dead", "a line 3: _Gone"]


def names_bound_twice(sources: dict) -> list:
    """Module-level names that more than one of ``sources`` (module name ->
    source) binds by assignment, ``def`` or ``class``; imports, which read a
    name from its one owner, and dunder names are left out."""
    owners = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    owners.setdefault(name, set()).add(module)
    return sorted(f"{name}: {', '.join(sorted(m))}" for name, m in owners.items() if len(m) > 1)


def test_no_module_level_name_is_bound_in_two_modules():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert names_bound_twice(sources) == []


def test_checker_flags_a_name_bound_in_two_modules():
    sources = {
        "a": "X = 1\ndef f(): pass\nclass C: pass\n_p, q = 1, 2\n__all__ = []\nfrom b import Y\n",
        "b": "X = 2\nY = 3\ndef _p(): pass\nC: int = 4\nf.attr = 1\n__all__ = []\n",
        "c": "import a\nq[0] = 1\n",
    }
    assert names_bound_twice(sources) == ["C: a, b", "X: a, b", "_p: a, b"]


def _is_int_predicate(node) -> bool:
    """Whether ``node`` calls ``isinstance`` with a type argument naming
    ``int`` or ``np.integer``."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any((isinstance(n, ast.Name) and n.id == "int")
                or (isinstance(n, ast.Attribute) and n.attr == "integer")
                for n in ast.walk(node.args[1]))
    )


def int_predicates(sources: dict) -> list:
    """Each ``isinstance`` call of ``sources`` (module name -> source) whose
    type argument names ``int`` or ``np.integer``, as the dotted name of the
    function or class around it (the module's name at module level)."""
    found = []
    for module, source in sources.items():
        stack = [(ast.parse(source), module)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}"
            if _is_int_predicate(node):
                found.append(owner)
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_check_int_asks_whether_a_value_is_an_integer():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert int_predicates(sources) == ["bitcore.check_int"]


def test_checker_flags_an_int_predicate_outside_its_owner():
    sources = {
        "a": "import numpy as np\ndef check(v):\n    return isinstance(v, (int, np.integer))\n"
        "class C:\n    def m(self, v):\n        return isinstance(v, np.integer)\n",
        "b": "ok = isinstance(x, int)\n"
        "def f(v):\n    return isinstance(v, (str, float)) or isinstance(v, bool)\n",
    }
    assert int_predicates(sources) == ["a.C.m", "a.check", "b"]
