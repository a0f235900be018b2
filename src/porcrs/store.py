"""Bit-exact persistence for server shares and client metadata.

Share files are little-endian binary:

    magic "CRS1" | version u16 | fid 16 bytes | token length u16 | token
    | j u64 | r u64 | ktilde u64 | stilde u64 | ctr u64 | c u64
    | r cells, each c block elements then c tag elements

Prime-field elements are 8-byte words, binary-field elements w/8-byte
words.  Tags sit next to their blocks so one challenged row is one
contiguous read.  Writes go through a temp file and rename, so a share
file on disk is always complete; any truncation or garbling surfaces as a
FormatError on read, never as partial state.

Client metadata is line-oriented ``key=value`` text with a fixed key set
and fixed order, so equal states serialize byte-identically.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .client import FileMetadata, SchemeParams, chunks_per_block, validate_params
from .errors import CapacityError, FormatError, MetaFormatError, ParameterError
from .field import BinaryField, field_from_token
from .server import ServerState, ShareParams, store_share

MAGIC = b"CRS1"
VERSION = 1


def _pack_elements(fld, vec) -> bytes:
    if isinstance(fld, BinaryField):
        return np.asarray(vec, dtype=np.dtype(fld.dtype).newbyteorder("<")).tobytes()
    return b"".join(struct.pack("<Q", int(x)) for x in vec)


def _unpack_elements(fld, raw: bytes, count: int):
    if isinstance(fld, BinaryField):
        return np.frombuffer(raw, dtype=np.dtype(fld.dtype).newbyteorder("<")).astype(
            fld.dtype
        )
    values = struct.unpack(f"<{count}Q", raw)
    for v in values:
        if v >= fld.order:
            raise FormatError(f"stored element {v} outside {fld.token}")
    return tuple(values)


def write_share(state: ServerState, path) -> None:
    """Serialize a share; replace-on-write so readers never see partials."""
    p = state.params
    fld = p.field
    token = fld.token.encode("ascii")
    header = (
        MAGIC
        + struct.pack("<H", VERSION)
        + state.fid
        + struct.pack("<H", len(token))
        + token
        + struct.pack("<6Q", state.j, p.r, p.ktilde, p.stilde, p.ctr, p.chunks)
    )
    body = bytearray()
    for idx, cell in enumerate(state.cells):
        if cell is None:
            raise ParameterError(f"cell {idx + 1} is absent; cannot serialize")
        block, tag = cell
        body += _pack_elements(fld, block)
        body += _pack_elements(fld, tag)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
    os.replace(tmp, path)


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
    if j < 1:
        raise FormatError("server index must be at least 1")
    if chunks < 1:
        raise FormatError("chunk count must be at least 1")
    cell_bytes = 2 * chunks * fld.element_size
    cells = []
    for i in range(r):
        raw = rd.take(cell_bytes, f"cell {i + 1}")
        half = chunks * fld.element_size
        try:
            block = _unpack_elements(fld, raw[:half], chunks)
            tag = _unpack_elements(fld, raw[half:], chunks)
        except struct.error as exc:
            raise FormatError(f"cell {i + 1}: {exc}") from None
        cells.append((block, tag))
    if rd.pos != len(data):
        raise FormatError(f"{len(data) - rd.pos} trailing bytes after body")
    params = ShareParams(field=fld, ktilde=ktilde, stilde=stilde, ctr=ctr, chunks=chunks)
    try:
        return store_share(j, fid, cells, params)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None


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
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


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
