"""The one checked file read and the one checked file write: every fault
names the file, and no other function in the package reads or writes one."""

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


def test_write_faults_name_the_path(tmp_path):
    write_output = errors.write_output
    path = tmp_path / "new" / "dir" / "table.json"
    write_output(path, "{\"µm\": 1}\n")  # the missing parents are created
    assert path.read_bytes() == "{\"µm\": 1}\n".encode("utf-8")
    write_output(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    with pytest.raises(DataError, match="cannot write .*table.json: File exists"):
        write_output(path / "child.json", "{}")  # the parent is a file
    with pytest.raises(DataError, match="cannot write .*dir: Is a directory"):
        write_output(path.parent, "{}")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "new", "table.json"]


def _open_mode(call):
    """The mode of an open(path, mode) or path.open(mode) call, "r" when none
    is given and "r+" when it is not a constant; None for any other call."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "open":
        args = call.args[1:2]  # open(path, mode)
    elif isinstance(f, ast.Attribute) and f.attr == "open":
        args = call.args[:1]  # path.open(mode)
    else:
        return None
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                args[0] if args else ast.Constant("r"))
    return str(mode.value) if isinstance(mode, ast.Constant) else "r+"


def _is_method(call, names, module=None) -> bool:
    """A call of one of the named attributes, on ``module`` when one is given."""
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr in names
            and (module is None or isinstance(f.value, ast.Name) and f.value.id == module))


def _is_read(call) -> bool:
    """A read-mode open, read_text, read_bytes or json.load call."""
    mode = _open_mode(call)
    return (_is_method(call, ("read_text", "read_bytes")) or _is_method(call, ("load",), "json")
            or mode is not None and not set(mode) & set("wax"))


def _is_write(call) -> bool:
    """A write-mode open, write_bytes, write_text, mkdir, os.makedirs or
    json.dump call."""
    mode = _open_mode(call)
    return (_is_method(call, ("write_bytes", "write_text", "mkdir"))
            or _is_method(call, ("makedirs",), "os") or _is_method(call, ("dump",), "json")
            or mode is not None and bool(set(mode) & set("wax+")))


def _calls(tree, predicate) -> list:
    """(enclosing function, line) of each call the predicate matches; outside
    any function, None."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and predicate(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    visit(tree, None)
    return found


def _offenders(predicate, allowed) -> list:
    """Each call in the package the predicate matches outside the allowed
    (module file, function)."""
    offenders = []
    for path in sorted(Path(pbrseg.__file__).parent.glob("*.py")):
        for func, line in _calls(ast.parse(path.read_text(), str(path)), predicate):
            if (path.name, func) != allowed:
                offenders.append(f"{path.name}:{line} in {func}")
    return offenders


def test_read_input_is_the_only_reader():
    assert _offenders(_is_read, ("errors.py", "read_input")) == []


def test_write_output_is_the_only_writer():
    assert _offenders(_is_write, ("errors.py", "write_output")) == []


def test_cli_reads_a_pvol_only_through_its_checked_read():
    """cli._read refuses a .pvol of the wrong class or grid, so no other
    function in cli reads one."""
    path = Path(pbrseg.__file__).parent / "cli.py"
    calls = _calls(ast.parse(path.read_text(), str(path)),
                   lambda call: _is_method(call, ("read_pvol_file", "read_pvol"))
                   or isinstance(call.func, ast.Name)
                   and call.func.id in ("read_pvol_file", "read_pvol"))
    assert [func for func, _ in calls] == ["_read"]


def test_one_rule_names_the_manifests():
    """main names the manifest it writes, and _check_trained_views the one it
    reads, through _manifest_path, the one place that spells the name."""
    path = Path(pbrseg.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = _calls(tree, lambda call: isinstance(call.func, ast.Name)
                   and call.func.id == "_manifest_path")
    assert sorted(func for func, _ in calls) == ["_check_trained_views", "main"]
    spelled = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f)
               if isinstance(node, ast.Constant) and "manifest_" in str(node.value)}
    assert spelled == {"_manifest_path"}


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
    assert [func for func, _ in _calls(ast.parse(source), _is_read)] == list("abcdef")


def test_the_guard_sees_each_kind_of_write():
    source = '''
def a(p): open(p, "w").write("x")
def b(p): open(p, mode="ab")
def c(p): p.open("x")
def d(p): p.open(mode="r+")
def e(p): p.write_bytes(b"x")
def f(p): p.write_text("x")
def g(p): p.mkdir(parents=True)
def h(p): os.makedirs(p)
def i(o, f): json.dump(o, f)
def j(p): open(p).read(); open(p, "rb"); p.read_text(); json.load(p); json.dumps({})
'''
    assert [func for func, _ in _calls(ast.parse(source), _is_write)] == list("abcdefghi")
