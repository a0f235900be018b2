"""Every file porcrs opens for reading is opened in a known function.

Share files are read by ``store.read_share`` alone, which checks the header
and the file length before it reads any cell; metadata, keyfile and
simulation config by ``textfile.read_entries`` alone, which gives every
fault a line number; and input payloads by the two commands that take
them.  This check reads the package source with ``ast`` and fails on any
other ``open`` for reading and any memory map of a file.  An ``open`` in
a writing mode and every ``os.open`` stay with ``tests/test_write_paths.py``,
which confines them to the commit step, and an anonymous map
(``mmap.mmap(-1, ...)``) reads no file.
"""

import ast
from pathlib import Path

import porcrs

SOURCE = Path(porcrs.__file__).parent

# module.function -> what it reads.
ALLOWED = {
    "store.read_share": "share files: the header, then the whole body or the challenged rows",
    "textfile.read_entries": "key=value text: metadata, keyfile and simulation config",
    "cli.cmd_outsource": "the input payload of outsource",
    "cli.cmd_append": "the input payload of an appended row",
}

_WRITE_MODES = set("wax+")
_NUMPY_READERS = {"fromfile", "load", "loadtxt", "genfromtxt", "memmap"}


def _mode(call: ast.Call):
    """The mode of an ``open`` call: its string, "r" when it is absent, or
    None when it is not a literal."""
    node = call.args[1] if len(call.args) > 1 else ast.Constant("r")
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _reads(call: ast.Call) -> str | None:
    """How the call opens a file to read it, or None if it opens none."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call)
        if mode is None:
            return "open with a computed mode"
        return None if _WRITE_MODES & set(mode) else f"open mode {mode!r}"
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr in ("read_bytes", "read_text") or (func.attr == "open" and owner != "os"):
        return f".{func.attr}"
    if owner in ("np", "numpy") and func.attr in _NUMPY_READERS:
        return f"np.{func.attr}"
    if owner == "mmap" and func.attr == "mmap":
        try:
            anonymous = ast.literal_eval(call.args[0]) == -1
        except (IndexError, ValueError):
            anonymous = False
        return None if anonymous else "mmap of a file"
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_calls(tree: ast.Module, module: str):
    """(owner, line, what) for every call that opens a file to read it; the
    owner is the top-level function or method that holds it, as
    module.name."""
    found = []

    def visit(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (what := _reads(child)):
                found.append((owner, child.lineno, what))
            if isinstance(child, _SCOPES) and not in_function:
                visit(child, f"{owner}.{child.name}", not isinstance(child, ast.ClassDef))
            else:
                visit(child, owner, in_function)

    visit(tree, module, False)
    return found


def all_read_calls():
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        calls += read_calls(ast.parse(path.read_text(), str(path)), path.stem)
    return calls


def test_only_known_functions_read_files():
    stray = [f"{owner} line {line}: {what}" for owner, line, what in all_read_calls()
             if owner not in ALLOWED]
    assert stray == []


def test_every_allowed_reader_still_reads():
    owners = {owner for owner, _, _ in all_read_calls()}
    assert owners == set(ALLOWED)


def test_check_sees_each_kind_of_read():
    source = '''
import mmap, os
import numpy as np
def f(p, fh):
    open(p)
    open(p, "rb")
    open(p, "wb")
    open(p, mode="r+")
    open(p, m)
    p.read_bytes()
    p.read_text()
    p.open()
    os.open(p, 0)
    os.readv(3, [])
    np.fromfile(p)
    np.memmap(p)
    mmap.mmap(-1, 4096)
    mmap.mmap(fh.fileno(), 0)
    class C:
        def g(self):
            open(p, "r")
def h(p):
    with open(p, "rb"):
        pass
'''
    calls = read_calls(ast.parse(source), "m")
    assert [(owner, what) for owner, _, what in calls] == [
        ("m.f", "open mode 'r'"),
        ("m.f", "open mode 'rb'"),
        ("m.f", "open with a computed mode"),
        ("m.f", ".read_bytes"),
        ("m.f", ".read_text"),
        ("m.f", ".open"),
        ("m.f", "np.fromfile"),
        ("m.f", "np.memmap"),
        ("m.f", "mmap of a file"),
        ("m.f", "open mode 'r'"),
        ("m.h", "open mode 'rb'"),
    ]
