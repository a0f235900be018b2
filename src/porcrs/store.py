"""Bit-exact persistence for server shares and client metadata.

Share files are little-endian binary:

    magic "CRS1" | version u16 | fid 16 bytes | token length u16 | token
    | j u64 | r u64 | ktilde u64 | stilde u64 | ctr u64 | c u64
    | r cells, each c block elements then c tag elements

Prime-field elements are 8-byte words, binary-field elements w/8-byte
words.  Tags sit next to their blocks so one challenged row is one
contiguous read.  The body is encoded and decoded as one array of 2rc
elements, not cell by cell; the bytes on disk are the same either way.
Writes go through a temp file and rename, so a share file on disk is
always complete, and a failed write removes its temp file; any truncation
or garbling surfaces as a FormatError on read, never as partial state.

Client metadata is line-oriented ``key=value`` text with a fixed key set
and fixed order, so equal states serialize byte-identically.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct

import numpy as np

from .client import FileMetadata, SchemeParams, chunks_per_block, validate_params
from .errors import CapacityError, FormatError, MetaFormatError, ParameterError
from .field import BinaryField, field_from_token
from .server import ServerState

MAGIC = b"CRS1"
VERSION = 1


def _body_dtype(fld) -> np.dtype:
    """On-disk element type: little-endian, w/8 bytes (binary) or 8 (prime)."""
    return np.dtype(fld.dtype if isinstance(fld, BinaryField) else np.uint64).newbyteorder("<")


def _write_replacing(path, data: bytes) -> None:
    """Write to a temp file, then rename it over ``path``.

    On any failure the temp file is removed and the error re-raised, so the
    old file stays as it was and nothing is left beside it.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_share(state: ServerState, path) -> None:
    """Serialize a share; replace-on-write so readers never see partials."""
    fld = state.field
    token = fld.token.encode("ascii")
    header = (
        MAGIC
        + struct.pack("<H", VERSION)
        + state.fid
        + struct.pack("<H", len(token))
        + token
        + struct.pack(
            "<6Q", state.j, state.r, state.ktilde, state.stilde, state.ctr, state.chunks
        )
    )
    if None in state.cells:
        raise ParameterError(f"cell {state.cells.index(None) + 1} is absent; cannot serialize")
    halves = itertools.chain.from_iterable(state.cells)
    if isinstance(fld, BinaryField):
        body = np.concatenate(list(halves)).astype(_body_dtype(fld)).tobytes()
    else:
        body = struct.pack(
            f"<{2 * state.r * state.chunks}Q", *itertools.chain.from_iterable(halves)
        )
    _write_replacing(path, header + body)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise FormatError(f"share file truncated in {what}")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out


def read_share(path) -> ServerState:
    with open(path, "rb") as fh:
        data = fh.read()
    rd = _Reader(data)
    if rd.take(4, "magic") != MAGIC:
        raise FormatError("bad magic; not a share file")
    (version,) = struct.unpack("<H", rd.take(2, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported share version {version}")
    fid = rd.take(16, "file id")
    (token_len,) = struct.unpack("<H", rd.take(2, "field token length"))
    raw_token = rd.take(token_len, "field token")
    try:
        token = raw_token.decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("field token is not ascii") from None
    try:
        fld = field_from_token(token)
    except ParameterError as exc:
        raise FormatError(f"bad field token: {exc}") from None
    j, r, ktilde, stilde, ctr, chunks = struct.unpack(
        "<6Q", rd.take(48, "share parameters")
    )
    if r != ktilde + stilde:
        raise FormatError(f"inconsistent header: r={r} != {ktilde}+{stilde}")
    if j < 1 or ktilde < 1:
        raise FormatError("server index and data row count must be at least 1")
    if chunks < 1:
        raise FormatError("chunk count must be at least 1")
    cell_bytes = 2 * chunks * fld.element_size
    body_len = len(data) - rd.pos
    if body_len < r * cell_bytes:
        raise FormatError(f"share file truncated in cell {body_len // cell_bytes + 1}")
    if body_len > r * cell_bytes:
        raise FormatError(f"{body_len - r * cell_bytes} trailing bytes after body")
    flat = np.frombuffer(data, dtype=_body_dtype(fld), count=2 * r * chunks, offset=rd.pos)
    if isinstance(fld, BinaryField):
        halves = iter(flat.astype(fld.dtype).reshape(2 * r, chunks))
    else:
        if flat.size and flat.max() >= fld.order:
            raise FormatError(f"stored element {flat.max()} outside {fld.token}")
        halves = zip(*[iter(flat.tolist())] * chunks)  # tuples of c ints
    cells = list(zip(halves, halves))  # consecutive halves: (block, tag)
    return ServerState(j, fid, fld, ktilde, stilde, ctr, chunks, cells)


# -- client metadata -----------------------------------------------------

_META_KEYS = (
    "fid",
    "field",
    "n",
    "k",
    "stilde",
    "ktilde",
    "r",
    "ctr",
    "c",
    "original_length",
    "eps_q",
    "eps_p",
    "window",
    "stilde0",
)
_INT_KEYS = {"n", "k", "stilde", "ktilde", "r", "ctr", "c", "original_length",
             "window", "stilde0"}


def write_meta(meta: FileMetadata, path) -> None:
    lines = [
        f"fid={meta.fid.hex()}",
        f"field={meta.field.token}",
        f"n={meta.n}",
        f"k={meta.k}",
        f"stilde={meta.stilde}",
        f"ktilde={meta.ktilde}",
        f"r={meta.r}",
        f"ctr={meta.ctr}",
        f"c={meta.chunks}",
        f"original_length={meta.original_length}",
        f"eps_q={meta.eps_q!r}",
        f"eps_p={meta.eps_p!r}",
        f"window={meta.window}",
        f"stilde0={meta.stilde0}",
    ]
    _write_replacing(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_meta(path) -> FileMetadata:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise MetaFormatError(f"expected key=value, got {line!r}", lineno)
            if key not in _META_KEYS:
                raise MetaFormatError(f"unknown key {key!r}", lineno)
            if key in values:
                raise MetaFormatError(f"duplicate key {key!r}", lineno)
            values[key] = value
    missing = [k for k in _META_KEYS if k not in values]
    if missing:
        raise MetaFormatError(f"missing keys: {', '.join(missing)}")

    def parse(key, conv):
        try:
            return conv(values[key])
        except ValueError:
            line = _line_of(path, key)
            raise MetaFormatError(f"bad value for {key}: {values[key]!r}", line) from None

    parsed = {k: parse(k, int) for k in _INT_KEYS}
    eps_q = parse("eps_q", float)
    eps_p = parse("eps_p", float)
    try:
        fid = bytes.fromhex(values["fid"])
    except ValueError:
        raise MetaFormatError("fid must be hex", _line_of(path, "fid")) from None
    if len(fid) != 16:
        raise MetaFormatError("fid must be 32 hex characters", _line_of(path, "fid"))
    try:
        fld = field_from_token(values["field"])
    except ParameterError as exc:
        raise MetaFormatError(str(exc), _line_of(path, "field")) from None
    if parsed["r"] != parsed["ktilde"] + parsed["stilde"]:
        raise MetaFormatError("r is inconsistent with ktilde + stilde")
    meta = FileMetadata(
        fid=fid,
        field=fld,
        n=parsed["n"],
        k=parsed["k"],
        ktilde=parsed["ktilde"],
        stilde=parsed["stilde"],
        stilde0=parsed["stilde0"],
        ctr=parsed["ctr"],
        chunks=parsed["c"],
        original_length=parsed["original_length"],
        eps_q=eps_q,
        eps_p=eps_p,
        window=parsed["window"],
    )
    _check_meta(meta)
    return meta


def _check_meta(meta: FileMetadata) -> None:
    """Reject parameters that no outsource, append or repair produces.

    Counter 0 still loads: ``client.append`` refuses such files itself.
    """
    fld = meta.field
    block_size = meta.chunks * fld.payload_size
    try:
        validate_params(
            SchemeParams(fld, meta.n, meta.k, meta.stilde0, meta.eps_q, meta.eps_p,
                         meta.window, block_size)
        )
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


def _line_of(path, key) -> int | None:
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip().startswith(f"{key}="):
                    return lineno
    except OSError:
        pass
    return None


# -- CLI directory layout -------------------------------------------------

def share_path(root, j: int, fid: bytes) -> str:
    return os.path.join(root, f"server_{j}", f"{fid.hex()}.share")


def write_share_tree(root, states: list[ServerState]) -> None:
    for state in states:
        path = share_path(root, state.j, state.fid)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_share(state, path)
