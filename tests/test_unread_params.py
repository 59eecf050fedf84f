"""No function of kronlab takes a parameter that it never reads.

Every file of src/kronlab is parsed; each parameter of each function and
lambda must be read somewhere in its body (a nested function's body counts).
A parameter that nothing reads is an input the caller must supply for
nothing, or one that the function silently ignores.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kronlab")
FILES = sorted(os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py"))


def unread_parameters(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p) for p in params if p not in read]
    return sorted(out)


def test_the_scan_sees_an_unread_parameter():
    source = (
        "def f(a, b, *c, d=1, **e):\n"
        "    def g():\n"
        "        return a\n"
        "    b = 2\n"
        "    return g, e\n"
        "h = lambda x, y: x\n"
    )
    # a is read by the nested g; b is only written
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "d"), (6, "<lambda>", "y")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_parameter_is_read(path):
    with open(path, encoding="utf-8") as fh:
        assert unread_parameters(fh.read()) == []
