"""Every file write, rename and removal in porcrs sits in the commit step.

Every file porcrs writes, depot or not, is committed only through
``store.replace_files``, so one recorder there sees every write, and one
mode rule there covers every file.  This check reads the package source
with ``ast`` and fails on any other call that writes, renames, removes or
changes the mode of a file.
"""

import ast
from pathlib import Path

import porcrs

SOURCE = Path(porcrs.__file__).parent

# module.function -> why it may write.
ALLOWED = {
    "store.replace_files": "stages owner-only files, renames and cleans up every file",
}

_OS_CALLS = {
    "open", "replace", "rename", "renames", "remove", "unlink", "makedirs", "mkdir",
    "rmdir", "truncate", "chmod", "fchmod",
}
_WRITE_MODES = set("wax+")


def _mode(call: ast.Call):
    """The mode of an ``open`` call: its string, "r" when it is absent, or
    None when it is not a literal."""
    node = call.args[1] if len(call.args) > 1 else ast.Constant("r")
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _writes(call: ast.Call) -> str | None:
    """What the call does to the file system, or None if it only reads."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "os" and func.attr in _OS_CALLS:
            return f"os.{func.attr}"
        if func.value.id == "shutil":
            return f"shutil.{func.attr}"
    if isinstance(func, ast.Attribute) and func.attr in ("write_bytes", "write_text", "touch"):
        return f".{func.attr}"
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call)
        if mode is None:
            return "open with a computed mode"
        if _WRITE_MODES & set(mode):
            return f"open mode {mode!r}"
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def write_calls(tree: ast.Module, module: str):
    """(owner, line, what) for every writing call; the owner is the
    top-level function or method that holds it, as module.name."""
    found = []

    def visit(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (what := _writes(child)):
                found.append((owner, child.lineno, what))
            if isinstance(child, _SCOPES) and not in_function:
                visit(child, f"{owner}.{child.name}", not isinstance(child, ast.ClassDef))
            else:
                visit(child, owner, in_function)

    visit(tree, module, False)
    return found


def all_write_calls():
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        calls += write_calls(ast.parse(path.read_text(), str(path)), path.stem)
    return calls


def test_only_known_functions_write_files():
    stray = [f"{owner} line {line}: {what}" for owner, line, what in all_write_calls()
             if owner not in ALLOWED]
    assert stray == []


def test_every_allowed_writer_still_writes():
    owners = {owner for owner, _, _ in all_write_calls()}
    assert owners == set(ALLOWED)


def test_check_sees_each_kind_of_write():
    source = '''
import os
def f(p):
    open(p)
    open(p, "rb")
    open(p, "w")
    open(p, mode="a+")
    open(p, m)
    os.replace(p, p)
    os.open(p, 0)
    os.makedirs(p)
    os.chmod(p, 0o644)
    os.fchmod(3, 0o600)
    os.path.join(p, p)
    class C:
        def g(self):
            os.remove(p)
def h(p):
    with open(p, "xb"):
        pass
'''
    calls = write_calls(ast.parse(source), "m")
    assert [(owner, what) for owner, _, what in calls] == [
        ("m.f", "open mode 'w'"),
        ("m.f", "open mode 'a+'"),
        ("m.f", "open with a computed mode"),
        ("m.f", "os.replace"),
        ("m.f", "os.open"),
        ("m.f", "os.makedirs"),
        ("m.f", "os.chmod"),
        ("m.f", "os.fchmod"),
        ("m.f", "os.remove"),
        ("m.h", "open mode 'xb'"),
    ]
