"""The one checked file read: every fault names the file, and no other
function in the package reads a file."""

import ast
import json
from pathlib import Path

import pytest

import pbrseg
from pbrseg import errors
from pbrseg.errors import DataError, SchemaError


def test_faults_name_the_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"a": 1}')
    read_input = errors.read_input
    assert read_input(path, json.loads) == {"a": 1}
    with pytest.raises(DataError, match="cannot read .*missing.json: No such file"):
        read_input(tmp_path / "missing.json", json.loads)
    with pytest.raises(DataError, match="cannot read .*: Is a directory"):
        read_input(tmp_path, json.loads)
    path.write_bytes(b"\xff{")  # not UTF-8: a ValueError
    with pytest.raises(DataError, match="table.json: .*utf-8"):
        read_input(path, json.loads)

    def refuse(data):
        raise SchemaError("no good")
    with pytest.raises(SchemaError, match="table.json: no good"):  # the subclass is kept
        read_input(path, refuse)


def _is_read(call) -> bool:
    """A read-mode open, read_text, read_bytes or json.load call."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in ("read_text", "read_bytes"):
        return True
    if isinstance(f, ast.Attribute) and f.attr == "load":
        return isinstance(f.value, ast.Name) and f.value.id == "json"
    if isinstance(f, ast.Name) and f.id == "open":
        args = call.args[1:2]  # open(path, mode)
    elif isinstance(f, ast.Attribute) and f.attr == "open":
        args = call.args[:1]  # path.open(mode)
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else None)
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def _reads(tree) -> list:
    """(enclosing function, line) of each read; outside any function, None."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _is_read(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    visit(tree, None)
    return found


def test_read_input_is_the_only_reader():
    offenders = []
    for path in sorted(Path(pbrseg.__file__).parent.glob("*.py")):
        for func, line in _reads(ast.parse(path.read_text(), str(path))):
            if (path.name, func) != ("errors.py", "read_input"):
                offenders.append(f"{path.name}:{line} in {func}")
    assert offenders == []


def test_the_guard_sees_each_kind_of_read():
    source = '''
def a(p): return open(p).read()
def b(p): return open(p, "rb").read()
def c(p): return p.read_text()
def d(p): return p.read_bytes()
def e(f): return json.load(f)
def f(p): return p.open(mode="r").read()
def g(p): open(p, "w").write("x"); open(p, mode="ab"); p.open("x")
'''
    assert [func for func, _ in _reads(ast.parse(source))] == list("abcdef")
