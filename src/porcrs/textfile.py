"""The one reader of ``key=value`` text: metadata, keyfile and config.

UTF-8 text, one entry per line, with the line's outer whitespace ignored;
blank and ``#`` lines are skipped; the key and the value either side of
the first ``=`` are taken verbatim.  Callers check completeness and
cross-field rules.
"""

from __future__ import annotations

from .errors import ParameterError


def read_entries(path, parsers: dict, error) -> dict:
    """``{key: parsers[key](value)}`` over the entries of the file at path.

    A line that is not UTF-8, a line without ``=``, an unknown or repeated
    key, or a value that its parser refuses (ValueError or ParameterError)
    raises ``error(message, line_number)``.
    """
    values = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise error("line is not UTF-8 text", lineno) from None
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise error(f"expected key=value, got {line!r}", lineno)
        if key not in parsers:
            raise error(f"unknown key {key!r}", lineno)
        if key in values:
            raise error(f"duplicate key {key!r}", lineno)
        try:
            values[key] = parsers[key](text)
        except (ValueError, ParameterError) as exc:
            raise error(f"bad value for {key}: {exc}", lineno) from None
    return values
