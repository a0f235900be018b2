"""Only known functions turn stored words into chunk vectors and back.

Append orders, audit proofs, PRF masks and tags are arrays of stored
words all the way from ``auth.prf_masks`` to ``client.verify``.  A vector
form is left in three places: the ``Column`` view, whose cells read as
(block, tag) pairs of vectors; repair, which decodes vectors until its
own move to word arrays; and the one-cell wrappers that the benchmark's
tracer wraps by name.  This check reads the package source with ``ast``
and fails on a call of a conversion from any other function.
"""

import ast
from pathlib import Path

import porcrs

SOURCE = Path(porcrs.__file__).parent

CONVERSIONS = {"vectors_from_words", "vectors_to_words", "encode_vectors", "apply_vectors"}

# module.function -> why it may convert.
ALLOWED = {
    "server.Column.__getitem__": "the Column view: a cell reads as a (block, tag) pair of vectors",
    "client._decode_data_rows": "repair: rows and columns are decoded as vectors",
    "client.redistribute": "repair: the decoded data vectors become words to re-encode",
    "crs.DistributionMatrix.encode_vectors": "traced wrapper over encode_words, kept for repair",
    "crs.DistributionMatrix.decode_erasures": "one-symbol wrapper over RecoveryPlan.apply_vectors",
    "auth.prf_vector": "traced one-cell wrapper: a mask row as a vector",
    "auth.tag_block": "traced one-cell wrapper: a block vector in, a tag vector out",
    "auth.verify_block": "traced one-cell wrapper, repair's cell check on vectors",
    "auth.tag_delta": "traced one-cell wrapper: a delta vector in, a tag delta vector out",
}

# The append and audit path, and what it calls: never on the list.
WORD_PATH = {
    "client.row_blocks_from_payload", "client.append", "client._tag_columns", "client.verify",
    "server.apply_append", "server.prove", "server.Column._encode", "server.Column.insert",
    "auth.prf_cells", "auth.prf_masks", "auth.prf_rows_cached", "auth.tags_from_masks",
    "auth.tag_deltas", "crs.DistributionMatrix.parity_delta", "crs.DistributionMatrix.encode_words",
    "cli._holds_order", "cli._stage",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def conversion_calls(tree: ast.Module, module: str):
    """(owner, line, name) for every call of a conversion; the owner is the
    top-level function or method that holds it, as module.name."""
    found = []

    def visit(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _name(child) in CONVERSIONS:
                found.append((owner, child.lineno, _name(child)))
            if isinstance(child, _SCOPES) and not in_function:
                visit(child, f"{owner}.{child.name}", not isinstance(child, ast.ClassDef))
            else:
                visit(child, owner, in_function)

    visit(tree, module, False)
    return found


def all_conversion_calls():
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        calls += conversion_calls(ast.parse(path.read_text(), str(path)), path.stem)
    return calls


def test_only_known_functions_convert():
    stray = [f"{owner} line {line}: {name}" for owner, line, name in all_conversion_calls()
             if owner not in ALLOWED]
    assert stray == []


def test_every_allowed_function_still_converts():
    owners = {owner for owner, _, _ in all_conversion_calls()}
    assert owners == set(ALLOWED)


def test_the_word_path_is_not_allowed():
    assert WORD_PATH & set(ALLOWED) == set()


def test_check_sees_each_conversion():
    source = '''
from m import vectors_to_words
def f(fld, code, plan, words):
    fld.vectors_from_words(words)
    vectors_to_words(words, 3)
    code.encode_vectors(plan.apply_vectors(words))
    code.encode_words(words)
    def inner():
        fld.vectors_to_words(words, 3)
class C:
    def g(self, fld):
        return fld.vectors_from_words(self.words)
'''
    calls = conversion_calls(ast.parse(source), "m")
    assert [(owner, name) for owner, _, name in calls] == [
        ("m.f", "vectors_from_words"),
        ("m.f", "vectors_to_words"),
        ("m.f", "encode_vectors"),
        ("m.f", "apply_vectors"),
        ("m.f", "vectors_to_words"),
        ("m.C.g", "vectors_from_words"),
    ]
