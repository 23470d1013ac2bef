"""Every ``np.setbufsize`` call in the package sits inside a ``with
np.errstate():`` block, whose exit restores the caller's ufunc buffer size."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bitflow"


def _calls(node, name: str) -> bool:
    """``node`` is a call of ``name``, bare or as an attribute (``np.name``)."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Attribute) and f.attr == name) or (
        isinstance(f, ast.Name) and f.id == name
    )


class _Scopes(ast.NodeVisitor):
    """Collects the lines of ``setbufsize`` calls outside an ``errstate`` with
    block. A function or lambda body starts unscoped: it runs when called,
    not where it is written."""

    def __init__(self):
        self.scoped = False
        self.unscoped = []

    def visit_With(self, node):
        for item in node.items:
            self.visit(item)
        outer = self.scoped
        self.scoped = outer or any(_calls(item.context_expr, "errstate") for item in node.items)
        for stmt in node.body:
            self.visit(stmt)
        self.scoped = outer

    def visit_FunctionDef(self, node):
        outer, self.scoped = self.scoped, False
        self.generic_visit(node)
        self.scoped = outer

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_Call(self, node):
        if _calls(node, "setbufsize") and not self.scoped:
            self.unscoped.append(node.lineno)
        self.generic_visit(node)


def unscoped_setbufsize(source: str) -> list:
    """Line numbers of ``setbufsize`` calls not lexically inside a ``with``
    statement that enters ``errstate(...)``."""
    scopes = _Scopes()
    scopes.visit(ast.parse(source))
    return scopes.unscoped


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_setbufsize_is_scoped_by_errstate(path):
    assert unscoped_setbufsize(path.read_text()) == []


def test_checker_flags_an_unscoped_setbufsize():
    source = "\n".join([
        "import numpy as np",
        "np.setbufsize(16)",
        "with np.errstate():",
        "    np.setbufsize(16)",
        "    def later():",
        "        np.setbufsize(16)",
        "with open('f'):",
        "    setbufsize(16)",
        "with np.errstate(all='ignore'), open('f'):",
        "    if wide:",
        "        np.setbufsize(32)",
        "    f = lambda: np.setbufsize(64)",
    ])
    assert unscoped_setbufsize(source) == [2, 6, 8, 12]
