"""Bit-exact persistence for server shares and client metadata.

Share files are little-endian binary:

    magic "CRS1" | version u16 | fid 16 bytes | token length u16 | token
    | j u64 | r u64 | ktilde u64 | stilde u64 | ctr u64 | c u64
    | r cells, each c block elements then c tag elements

This module owns the header: ``share_bytes`` packs it with ``_PREFIX`` and
``_SHAPE``, and ``read_share`` alone parses it and checks the file length
against r cells before it reads any of the body.  ``Field`` owns the
element encoding of the body (8-byte words in Z_p, w/8-byte words in
GF(2^w)) and the check that a stored word is an element.  Tags sit next to
their blocks, so cell i is the 2c elements at header + (i - 1) * 2c
elements.  In memory a server's column (``server.Column``) has this same
layout, an (r, 2, c) array of stored words, so reading a share wraps the
body's words in a column and writing one is the header and then the
column's words.  ``read_share`` reads either the whole body, for an
append or a repair, or just the challenged rows, for an audit.  A whole
read checks every word in one pass and decodes no cell until one is
read, and it leaves room for the row an append adds, so the append
changes the array in place and writes the rows before it back as the
words they were stored as.

Every file porcrs writes goes through ``replace_files``: it writes it to
``staged_path(path)`` and renames the staged files over their paths only
once all are staged, so a file on disk is always complete.  ``outsource``,
``append`` and ``repair`` commit this way, their metadata last: a failure
before the first rename changes no file; after it, the files the call
created are removed again, ``append`` and ``repair`` finish when run
again, and an ``outsource`` leaves no share and no metadata.  Two porcrs
commands must not run on one depot at once: they share the staged names.

Client metadata is ``key=value`` text, read by ``textfile.read_entries``;
the table ``_META`` fixes its keys, their order and their syntax, so equal
states serialize byte-identically.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import operator
import os
import struct

import numpy as np

from .client import FileMetadata, SchemeParams, chunks_per_block
from .errors import CapacityError, FieldMismatchError, FormatError, MetaFormatError, ParameterError
from .field import field_from_token
from .server import Column, ServerState
from .textfile import read_entries

MAGIC = b"CRS1"
VERSION = 1

_PREFIX = struct.Struct("<4sH16sH")  # magic, version, fid, token length
_SHAPE = struct.Struct("<6Q")  # j, r, ktilde, stilde, ctr, c


def replace_files(stages) -> None:
    """Stage a new version of every file, then rename them all in order.

    ``stages`` maps each path to a callable that returns the file's new
    bytes, or None to leave it as it is; each result is written out,
    owner-only (0600), before the next stage runs.  On any exception every
    staged file is removed, and so is every file renamed into a path that
    held no file before the call; then the error is re-raised.
    """
    def owner_only(name, flags):
        fd = os.open(name, flags, 0o600)
        os.fchmod(fd, 0o600)  # os.open's mode misses a staged file left by a killed run
        return fd

    staged, created = [], []
    try:
        for path, stage in stages.items():
            data = stage()
            if data is not None:
                os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
                with open(staged_path(path), "wb", opener=owner_only) as fh:
                    fh.write(data)
                staged.append((path, os.path.lexists(path)))
        # Listed before any rename: a failure just after one must undo it too.
        created = [path for path, existed in staged if not existed]
        for path, _ in staged:
            os.replace(staged_path(path), path)
    except BaseException:
        for path in [*map(staged_path, stages), *created]:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def share_bytes(state: ServerState) -> bytes:
    """Serialize a share whose every cell is present and of its shape.

    The body is the column's words verbatim.
    """
    fld, cells = state.field, state.cells
    if len(cells) != state.r or cells.chunks != state.chunks or cells.field != fld:
        raise ParameterError("cells do not match the share's r and chunk count")
    body = cells.body()
    token = fld.token.encode("ascii")
    header = (
        _PREFIX.pack(MAGIC, VERSION, state.fid, len(token))
        + token
        + _SHAPE.pack(state.j, state.r, state.ktilde, state.stilde, state.ctr, state.chunks)
    )
    return b"".join([header, body])


def write_share(state: ServerState, path) -> None:
    """Replace the file at ``path`` with the share, or leave it as it was."""
    replace_files({path: functools.partial(share_bytes, state)})


def _read_header(fh) -> tuple[tuple, int]:
    """Parse and check the header at the start of fh, then check the file's
    length against r cells, before any body byte is read.

    Returns the share's (j, fid, field, ktilde, stilde, ctr, chunks), the
    fields of its state before its cells, and the body's offset.
    """
    raw = fh.read(_PREFIX.size)
    if len(raw) < _PREFIX.size:
        raise FormatError("share file truncated in header")
    magic, version, fid, token_len = _PREFIX.unpack(raw)
    if magic != MAGIC:
        raise FormatError("bad magic; not a share file")
    if version != VERSION:
        raise FormatError(f"unsupported share version {version}")
    raw = fh.read(token_len + _SHAPE.size)
    if len(raw) < token_len + _SHAPE.size:
        raise FormatError("share file truncated in header")
    try:
        fld = field_from_token(raw[:token_len].decode("ascii"))
    except UnicodeDecodeError:
        raise FormatError("field token is not ascii") from None
    except ParameterError as exc:
        raise FormatError(f"bad field token: {exc}") from None
    j, r, ktilde, stilde, ctr, chunks = _SHAPE.unpack_from(raw, token_len)
    if r != ktilde + stilde:
        raise FormatError(f"inconsistent header: r={r} != {ktilde}+{stilde}")
    if j < 1 or ktilde < 1:
        raise FormatError("server index and data row count must be at least 1")
    if chunks < 1:
        raise FormatError("chunk count must be at least 1")
    offset = _PREFIX.size + token_len + _SHAPE.size
    body_len = os.fstat(fh.fileno()).st_size - offset
    cell_bytes = 2 * chunks * fld.element_size
    if body_len < r * cell_bytes:
        raise FormatError(f"share file truncated in cell {body_len // cell_bytes + 1}")
    if body_len > r * cell_bytes:
        raise FormatError(f"{body_len - r * cell_bytes} trailing bytes after body")
    return (j, fid, fld, ktilde, stilde, ctr, chunks), offset


def read_share(path, rows=None) -> ServerState:
    """Read and check the share file at ``path``.

    The state's cells are a ``Column`` over the body's words, in the file's
    own layout.  Without ``rows`` the whole body is read and every word
    checked in one pass, into an array with room for one more row, so an
    append copies none of it.  With ``rows`` (1-based, repeats allowed)
    only the header and those rows' words are read, through a memory map,
    with one gather and one element check; every other row of the column
    raises LookupError, and ``write_share`` refuses the state.  Header and
    length faults raise the same FormatError either way, and so does a
    word outside the field in a row that is read; one in an unread row
    goes unseen.
    """
    with open(path, "rb") as fh:
        header, offset = _read_header(fh)
        _, _, fld, ktilde, stilde, _, c = header
        r = ktilde + stilde
        if rows is None:
            words = np.empty((r + 1, 2, c), fld.stored_dtype)  # room for an appended row
            body = words[:r]
            if fh.readinto(memoryview(body).cast("B")) != body.nbytes:
                raise FormatError("share file changed while it was read")
            _check(fld, body)
            return ServerState(*header, Column(fld, c, words, r))
        picks = np.array(list(rows), dtype=np.intp)
        bad = picks[(picks < 1) | (picks > r)]
        if bad.size:
            raise ParameterError(f"row {bad[0]} out of range 1..{r}")
        picks -= 1
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as body:
            stored = np.frombuffer(body, fld.stored_dtype, 2 * r * c, offset)
            picked = stored.reshape(r, 2, c)[picks]
            del stored  # the map closes only once no array views it
    _check(fld, picked)
    words = np.zeros((r, 2, c), fld.stored_dtype)
    words[picks] = picked
    return ServerState(*header, Column(fld, c, words, read=picks))


def _check(fld, words) -> None:
    try:
        fld.check_words(words)
    except FieldMismatchError as exc:
        raise FormatError(str(exc)) from None


# -- client metadata -----------------------------------------------------

def _parse_fid(text: str) -> bytes:
    fid = bytes.fromhex(text)
    if len(fid) != 16:
        raise ValueError("need 32 hex characters")
    return fid


# key -> (FileMetadata attribute, parse, format), in file order.  "r" is
# written from meta.r and on read only checked against ktilde + stilde.
_META = {
    "fid": ("fid", _parse_fid, bytes.hex),
    "field": ("field", field_from_token, operator.attrgetter("token")),
    "n": ("n", int, str),
    "k": ("k", int, str),
    "stilde": ("stilde", int, str),
    "ktilde": ("ktilde", int, str),
    "r": ("r", int, str),
    "ctr": ("ctr", int, str),
    "c": ("chunks", int, str),
    "original_length": ("original_length", int, str),
    "eps_q": ("eps_q", float, repr),
    "eps_p": ("eps_p", float, repr),
    "window": ("window", int, str),
    "stilde0": ("stilde0", int, str),
}


def meta_bytes(meta: FileMetadata) -> bytes:
    return "".join(
        f"{key}={fmt(getattr(meta, attr))}\n" for key, (attr, _, fmt) in _META.items()
    ).encode("ascii")


def write_meta(meta: FileMetadata, path) -> None:
    replace_files({path: functools.partial(meta_bytes, meta)})


def read_meta(path) -> FileMetadata:
    parsers = {key: parse for key, (_, parse, _) in _META.items()}
    found = read_entries(path, parsers, MetaFormatError)
    missing = [key for key in _META if key not in found]
    if missing:
        raise MetaFormatError(f"missing keys: {', '.join(missing)}")
    fields = {attr: found[key] for key, (attr, _, _) in _META.items()}
    if fields.pop("r") != fields["ktilde"] + fields["stilde"]:
        raise MetaFormatError("r is inconsistent with ktilde + stilde")
    meta = FileMetadata(**fields)
    _check_meta(meta)
    return meta


def _check_meta(meta: FileMetadata) -> None:
    """Reject parameters that no outsource, append or repair produces.

    Counter 0 still loads: ``client.append`` refuses such files itself.
    """
    fld = meta.field
    block_size = meta.chunks * fld.payload_size
    try:
        SchemeParams(fld, meta.n, meta.k, meta.stilde0, meta.eps_q, meta.eps_p,
                     meta.window, block_size)
        chunks = chunks_per_block(fld, block_size)
    except (ParameterError, CapacityError) as exc:
        raise MetaFormatError(str(exc)) from None
    if chunks != meta.chunks or meta.ktilde < 1 or meta.stilde < 0 or meta.ctr < 0:
        raise MetaFormatError(
            f"need c = {chunks}, ktilde >= 1, stilde >= 0 and ctr >= 0; got "
            f"c={meta.chunks} ktilde={meta.ktilde} stilde={meta.stilde} ctr={meta.ctr}"
        )
    if not 0 < meta.original_length <= meta.ktilde * meta.k * block_size:
        raise MetaFormatError(
            f"original_length {meta.original_length} does not fit "
            f"{meta.ktilde} rows of {meta.k * block_size} bytes"
        )


# -- CLI directory layout -------------------------------------------------

def share_path(root, j: int, fid: bytes) -> str:
    return os.path.join(root, f"server_{j}", f"{fid.hex()}.share")


def staged_path(path) -> str:
    """Where a new version of ``path`` waits until it is renamed over it."""
    return f"{path}.staged"


def write_share_tree(root, states: list[ServerState]) -> None:
    """Write every share under ``root``, all of them or none."""
    replace_files({
        share_path(root, state.j, state.fid): functools.partial(share_bytes, state)
        for state in states
    })
