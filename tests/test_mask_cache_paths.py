"""Only known functions touch the module-global PRF mask cache.

``auth._PRF_CACHE`` holds key-derived values: its keys carry the PRF key
and its entries are masks.  Three functions may read or write it: the
row lookup that audits use, repair's one-cell lookup, and the function
that clears it.  This check reads the package source with ``ast`` and
fails on any other reference to the name, be it a load, a store, an
import or the name as a string (for ``getattr``).  The one module-level
assignment in ``auth`` that defines the cache is not a use.
"""

import ast
from pathlib import Path

import porcrs

SOURCE = Path(porcrs.__file__).parent

CACHE = "_PRF_CACHE"

# module.function -> what it does with the cache.
ALLOWED = {
    "auth.prf_rows_cached": "audits: one lookup per challenged counter-0 row, stores the misses",
    "auth.prf_vector_cached": "repair's cell check: reads one server's slot of a cached row",
    "auth.clear_prf_cache": "empties it",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> bool:
    """True when the node itself refers to the cache by name."""
    if isinstance(node, ast.Name):
        return node.id == CACHE
    if isinstance(node, ast.Attribute):
        return node.attr == CACHE
    if isinstance(node, ast.alias):
        return node.name == CACHE
    if isinstance(node, ast.Constant):
        return node.value == CACHE
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return CACHE in node.names
    return False


def _is_definition(node) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == CACHE for t in targets)


def cache_uses(tree: ast.Module, module: str):
    """(owner, line) for every reference to the cache; the owner is the
    top-level function or method that holds it, as module.name, or the
    module for top-level code.  A top-level assignment to the name is
    its definition and is left out."""
    found = []

    def visit(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if owner == module and _is_definition(child):
                continue
            if _names(child):
                found.append((owner, getattr(child, "lineno", node.lineno)))
            if isinstance(child, _SCOPES) and not in_function:
                visit(child, f"{owner}.{child.name}", not isinstance(child, ast.ClassDef))
            else:
                visit(child, owner, in_function)

    visit(tree, module, False)
    return found


def all_cache_uses():
    uses = []
    for path in sorted(SOURCE.glob("*.py")):
        uses += cache_uses(ast.parse(path.read_text(), str(path)), path.stem)
    return uses


def test_only_known_functions_touch_the_cache():
    stray = [f"{owner} line {line}" for owner, line in all_cache_uses() if owner not in ALLOWED]
    assert stray == []


def test_every_allowed_function_still_touches_it():
    assert {owner for owner, _ in all_cache_uses()} == set(ALLOWED)


def test_auth_defines_the_cache_once():
    tree = ast.parse((SOURCE / "auth.py").read_text())
    assert sum(map(_is_definition, tree.body)) == 1


def test_check_sees_each_kind_of_use():
    source = '''
from .auth import _PRF_CACHE
_PRF_CACHE: dict = {}
def f(auth):
    auth._PRF_CACHE.clear()
    _PRF_CACHE[1] = 2
    getattr(auth, "_PRF_CACHE")
    def inner():
        global _PRF_CACHE
class C:
    def g(self):
        return _PRF_CACHE.get(3)
x = _PRF_CACHE
'''
    uses = cache_uses(ast.parse(source), "m")
    assert [owner for owner, _ in uses] == ["m", "m.f", "m.f", "m.f", "m.f", "m.C.g", "m"]
