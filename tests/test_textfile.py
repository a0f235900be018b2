"""The shared key=value reader of metadata, keyfile and config."""

import pytest

from porcrs.errors import ParameterError
from porcrs.textfile import read_entries


class LineError(Exception):
    def __init__(self, message, line):
        super().__init__(message)
        self.line = line


def positive(text):
    value = int(text)
    if value < 1:
        raise ParameterError("must be at least 1")
    return value


PARSERS = {"n": positive, "name": str}


def test_entries_parse_verbatim_and_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# head\n\n  n=3  \n\t# note = not an entry\nname= a=b \n")
    assert read_entries(path, PARSERS, LineError) == {"n": 3, "name": " a=b"}
    path.write_text("")
    assert read_entries(path, PARSERS, LineError) == {}


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("n=3\nname\n", 2, "expected key=value, got 'name'"),
        ("# n=1\nsize=3\n", 2, "unknown key 'size'"),
        ("n =3\n", 1, "unknown key 'n '"),
        ("n=3\n\nn=3\n", 3, "duplicate key 'n'"),
        ("name=x\nn=three\n", 2, "bad value for n: invalid literal"),
        ("n=0\n", 1, "bad value for n: must be at least 1"),
    ],
)
def test_each_fault_names_its_line(tmp_path, text, line, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(LineError, match=f"^{message}") as caught:
        read_entries(path, PARSERS, LineError)
    assert caught.value.line == line
