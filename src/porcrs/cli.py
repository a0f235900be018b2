"""Operator command line: directory-backed servers under one root.

Each "server" is a subdirectory ``server_<j>`` holding one share file per
outsourced file; the client side keeps a keyfile and a per-file metadata
file.  Every command is a thin binding over the client/server/store
modules -- no protocol logic lives here.

Exit codes: 0 success, 2 audit found failing servers, 3 repair could not
recover the file, 4 malformed artifact, 5 capacity exceeded, 6 bad
parameters or usage, 7 unrecoverable erasure pattern, 8 rejected append
order, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import statistics
import sys
import time

import numpy as np

from . import client, fanout, harness, store
from .auth import read_keyfile, write_keyfile, keygen, clear_prf_cache, prf_masks
from .server import apply_append, prove
from .errors import (
    CapacityError,
    FieldMismatchError,
    FormatError,
    OrderRejectedError,
    ParameterError,
    PorcrsError,
    UnrecoverableError,
)
from .field import field_from_token

_EXIT_CODES = (
    (FormatError, 4),
    (CapacityError, 5),
    (ParameterError, 6),
    (FieldMismatchError, 6),
    (UnrecoverableError, 7),
    (OrderRejectedError, 8),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(6, f"{self.prog}: error: {message}\n")


def _positive_ints(text: str) -> list[int]:
    """Comma-separated positive integers, an argparse type."""
    values = [int(s) if s.isdecimal() else 0 for s in text.split(",") if s]
    if 0 in values:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _rng(seed):
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _load_meta_key(args):
    meta = store.read_meta(args.meta)
    sk = read_keyfile(args.key, meta.field)
    return meta, sk


def cmd_keygen(args) -> int:
    fld = field_from_token(args.field)
    # Every file outsourced under the old key would fail its audits for good.
    if os.path.lexists(args.key):
        raise ParameterError(f"{args.key} exists; refusing to replace a key")
    sk = keygen(fld, random.Random(args.seed) if args.seed is not None else None)
    write_keyfile(args.key, sk, fld)
    print(f"wrote key for {fld.token} to {args.key}")
    return 0


def _refuse_existing_meta(path) -> None:
    if os.path.lexists(path):
        raise ParameterError(f"{path} exists; refusing to orphan the file it describes")


def cmd_outsource(args) -> int:
    if args.meta:
        _refuse_existing_meta(args.meta)  # before the whole file is encoded and tagged
    fld = field_from_token(args.field)
    sk = read_keyfile(args.key, fld)
    params = client.SchemeParams(
        fld, args.n, args.k, args.stilde, args.eps_q, args.eps_p,
        args.window, args.block_size,
    )
    with open(args.file, "rb") as fh:
        data = fh.read()
    rng = random.Random(args.seed) if args.seed is not None else None
    meta, shares = client.outsource(sk, params, data, rng=rng)
    meta_path = args.meta or f"{meta.fid.hex()}.meta"
    _refuse_existing_meta(meta_path)
    for j in range(1, meta.n + 1):
        # Shares under one fid share their tag contexts: a server holding
        # two files' blocks under one context learns alpha.
        if os.path.lexists(store.share_path(args.root, j, meta.fid)):
            raise ParameterError(
                f"server {j} holds a file with fid {meta.fid.hex()}; never reuse "
                "a --seed for two files under one key"
            )
    _commit(args.root, meta, shares, meta_path)
    print(f"fid={meta.fid.hex()}")
    print(f"grid: {meta.ktilde} data rows + {meta.stilde} parity rows x {meta.n} servers")
    print(f"metadata: {meta_path}")
    return 0


def _holds_order(state, order) -> bool:
    """True when the share already took this very order: its counter is the
    order's target and its newest data row is the order's cell."""
    if state.ctr != order.target_ctr:
        return False
    held = state.cells.gather([state.ktilde - 1])[0]
    return np.array_equal(held, [order.new_block, order.new_tag])


def _mismatch(state, allowed: dict) -> str:
    """The fields of a share header outside their allowed values, or ''."""
    def show(value):
        return value.hex() if isinstance(value, bytes) else str(value)

    return ", ".join(
        f"{name}={show(getattr(state, name))} (want {' or '.join(map(show, want))})"
        for name, want in allowed.items() if getattr(state, name) not in want
    )


def _stage(order, path):
    """Read and check one server's share and apply its order; returns the
    new share's bytes, or None when the share already took the order.

    The share is read whole, with room for the new row, and every word is
    checked in one pass.  The parity rows take their deltas as stored
    words, the rows before them are written back as they were stored, and
    no cell is decoded: when the share's counter says it may already hold
    the order, the newest data row's words are compared with the order's.
    So that work costs the same at any file height; reading and copying
    the share does not.
    """
    j = order.server
    try:
        state = store.read_share(path)
    except FormatError as exc:
        raise FormatError(f"server {j}: {exc}") from None
    # The order targets the file's counter + 1, which an interrupted append
    # may have left on this share already.
    wrong = _mismatch(
        state, {"j": (j,), "fid": (order.fid,), "ctr": (order.target_ctr - 1, order.target_ctr)}
    )
    if wrong:
        raise OrderRejectedError(f"server {j}: share has {wrong}; repair first")
    if _holds_order(state, order):
        print(f"server {j}: already applied")
        return None
    try:
        apply_append(state, order)
    except OrderRejectedError as exc:
        raise OrderRejectedError(
            f"server {j}: {exc}; re-run append with the row that was "
            "interrupted, or repair"
        ) from None
    return store.share_bytes(state)


def _commit(root, meta, shares, meta_path) -> None:
    """Replace every server's share with a fresh one, then the metadata."""
    stages = {
        store.share_path(root, state.j, state.fid): functools.partial(store.share_bytes, state)
        for state in client.make_server_states(meta, shares)
    }
    stages[meta_path] = functools.partial(store.meta_bytes, meta)
    store.replace_files(stages)


def cmd_append(args) -> int:
    meta, sk = _load_meta_key(args)
    with open(args.file, "rb") as fh:
        payload = fh.read()
    row = client.row_blocks_from_payload(meta, payload)
    orders = client.append(sk, meta, row)
    stages = {}
    for order in orders:
        path = store.share_path(args.root, order.server, meta.fid)
        stages[path] = functools.partial(_stage, order, path)
    stages[args.meta] = functools.partial(store.meta_bytes, meta)
    store.replace_files(stages)
    print(f"appended row {meta.ktilde}; ctr={meta.ctr}")
    return 0


def cmd_audit(args) -> int:
    meta, sk = _load_meta_key(args)
    l = args.l if args.l is not None else min(meta.r, 20)
    q = client.challenge(meta, l, _rng(args.seed))
    rows = [i for i, _ in q.entries]
    proof = []
    for j in range(1, meta.n + 1):
        # Only the challenged cells are read: a fault in any other cell
        # waits for the audit that challenges it, or for append or repair.
        try:
            state = store.read_share(store.share_path(args.root, j, meta.fid), rows)
            proof.append(prove(state, q))
        except (OSError, PorcrsError):
            proof.append(None)
    verdicts = client.verify(sk, meta, q, proof)
    for j, ok in enumerate(verdicts, 1):
        print(f"server {j}: {'PASS' if ok else 'FAIL'}")
    failed = [str(j) for j, ok in enumerate(verdicts, 1) if not ok]
    if failed:
        print(f"audit failed for servers: {', '.join(failed)}")
        return 2
    print(f"audit passed ({l} rows challenged)")
    return 0


def cmd_repair(args) -> int:
    meta, sk = _load_meta_key(args)
    dumps = []
    for j in range(1, meta.n + 1):
        try:
            dumps.append(store.read_share(store.share_path(args.root, j, meta.fid)))
        except (OSError, FormatError):
            dumps.append(None)  # an erasure
    result = client.redistribute(sk, meta, dumps)
    if result is None:
        print("repair failed: file unavailable")
        return 3
    out = args.out or f"{meta.fid.hex()}.recovered"
    # The data is handed back before the commit, even if re-sharing fails.
    store.replace_files({out: lambda: result.data})
    _commit(args.root, result.meta, result.shares, args.meta)
    print(f"recovered {len(result.data)} bytes to {out}")
    print(f"reshared at ctr={result.meta.ctr} with {result.meta.stilde} parity rows")
    return 0


def cmd_status(args) -> int:
    meta = store.read_meta(args.meta)
    print(f"fid={meta.fid.hex()} field={meta.field.token}")
    print(
        f"n={meta.n} k={meta.k} ktilde={meta.ktilde} stilde={meta.stilde} "
        f"r={meta.r} ctr={meta.ctr} chunks={meta.chunks}"
    )
    print(f"original_length={meta.original_length}")
    fraction = meta.stilde / meta.r
    line = f"parity: stilde/r = {meta.stilde}/{meta.r} = {fraction:.4f}, eps_p = {meta.eps_p}"
    if fraction < meta.eps_p:
        grown = client.target_stilde(meta)
        line += (
            f"; below eps_p, the next repair grows stilde to {grown}" if grown > meta.stilde
            else f"; below eps_p, the next repair keeps stilde = {meta.stilde}"
        )
    print(line)
    want = {"fid": (meta.fid,), "r": (meta.r,), "ctr": (meta.ctr,)}
    for j in range(1, meta.n + 1):
        try:
            # Header, shape and file length only: no cell is decoded.
            state = store.read_share(store.share_path(args.root, j, meta.fid), ())
        except FileNotFoundError:
            line = "missing"
        except FormatError as exc:
            line = f"malformed: {exc}"
        except OSError as exc:
            line = f"unreadable: {exc.strerror or exc}"
        else:
            wrong = _mismatch(state, {"j": (j,), **want})
            line = f"mismatch: {wrong}" if wrong else f"ok (r={state.r}, ctr={state.ctr})"
        print(f"server {j}: {line}")
    return 0


_BENCH_APPENDS = 5


def cmd_bench(args) -> int:
    fld = field_from_token(args.field)
    rows, counts = [], []
    rng = random.Random(args.seed if args.seed is not None else 0)
    sk = keygen(fld, rng)
    params = client.SchemeParams(
        fld, args.n, args.k, args.stilde, args.eps_q, args.eps_p,
        args.window, args.block_size,
    )
    for size in args.sizes:
        data = rng.randbytes(size)
        t0 = time.perf_counter()
        meta, shares = client.outsource(sk, params, data, rng=rng)
        outsource_s = time.perf_counter() - t0
        servers = client.make_server_states(meta, shares)
        mib_s = size / 2**20 / outsource_s
        print(f"|F|={size}: outsource {outsource_s:.3f}s ({mib_s:.2f} MiB/s), r={meta.r}")
        rows.append((size, 0, "outsource", outsource_s))
        # Processes sharing the PRF work: outsource tags r cells per server,
        # an in-memory append after the first asks for 1 + stilde.
        split = {
            "outsource": fanout.processes(meta.n, meta.n * meta.r * meta.chunks),
            "append": fanout.processes(meta.n, meta.n * (1 + meta.stilde) * meta.chunks),
        }
        print(
            f"|F|={size}: PRF work on {split['outsource']} process(es) for outsource,"
            f" {split['append']} for append"
        )
        counts += [(size, f"{op}_processes", count) for op, count in split.items()]
        for l in args.queries:
            if l > meta.r:
                print(f"|F|={size} |Q|={l}: skipped (r={meta.r} too small)")
                continue
            q = client.challenge(meta, l, rng)
            t0 = time.perf_counter()
            proof = [prove(state, q) for state in servers]
            prove_s = time.perf_counter() - t0
            clear_prf_cache()
            t0 = time.perf_counter()
            verdicts = client.verify(sk, meta, q, proof)
            verify_s = time.perf_counter() - t0
            ok = all(verdicts)
            print(
                f"|F|={size} |Q|={l}: prove {prove_s:.3f}s, verify {verify_s:.3f}s,"
                f" {'pass' if ok else 'FAIL'}"
            )
            rows.append((size, l, "prove", prove_s))
            rows.append((size, l, "verify", verify_s))
        # Client-side latency of consecutive appends to the file in memory.
        payload = client.block_payload_size(fld, meta.chunks) * meta.k
        append_s = []
        for _ in range(_BENCH_APPENDS):
            row = client.row_blocks_from_payload(meta, rng.randbytes(payload))
            t0 = time.perf_counter()
            orders = client.append(sk, meta, row)
            append_s.append(time.perf_counter() - t0)
            for state, order in zip(servers, orders):
                apply_append(state, order)
        append_s = statistics.median(append_s)
        print(f"|F|={size}: append {append_s * 1e3:.1f} ms (median of {_BENCH_APPENDS})")
        rows.append((size, 0, "append", append_s))
        if args.queries:
            # Audits right after the appends, on uniform rows as client.challenge
            # draws them: a drawn row among the newest row and the parity rows
            # takes the mask the last append carried, older rows the PRF cache
            # or the kernel.
            l = min(args.queries[0], meta.r)
            audit_s = []
            ok = True
            for _ in range(_BENCH_APPENDS):
                q = client.challenge(meta, l, rng)
                t0 = time.perf_counter()
                ok &= all(client.verify(sk, meta, q, [prove(state, q) for state in servers]))
                audit_s.append(time.perf_counter() - t0)
            audit_s = statistics.median(audit_s)
            print(
                f"|F|={size} |Q|={l}: audit after the appends {audit_s * 1e3:.1f} ms"
                f" (uniform rows, median of {_BENCH_APPENDS}), {'pass' if ok else 'FAIL'}"
            )
            rows.append((size, l, "audit", audit_s))
    # The PRF layer alone: one server's masks at this block size, per cell.
    chunks = client.chunks_per_block(fld, args.block_size)
    per_cell = []
    for batch in range(5):
        cells = [(16 * batch + t, 0) for t in range(1, 17)]
        t0 = time.perf_counter()
        prf_masks(sk.kprf, bytes(16), 1, cells, chunks, fld)
        per_cell.append((time.perf_counter() - t0) / len(cells))
    prf_cell_s = statistics.median(per_cell)
    print(f"prf_masks: {prf_cell_s * 1e6:.1f} us per cell of {chunks} chunks")
    rows.append((0, 0, "prf_cell", prf_cell_s))
    # The field layer alone: one server's proof, a vec_combine over |Q| rows
    # of block and tag words as prove passes them.
    for l in args.queries:
        words = fld.payload_words(rng.randbytes(l * 2 * chunks * fld.payload_size))
        words = words.reshape(l, 2 * chunks)
        coeffs = [fld.rand_element(rng) for _ in range(l)]
        combine_s = []
        for _ in range(5):
            t0 = time.perf_counter()
            fld.vec_combine(coeffs, words)
            combine_s.append(time.perf_counter() - t0)
        combine_s = statistics.median(combine_s)
        print(
            f"vec_combine: {combine_s * 1e6:.1f} us over |Q|={l} rows of"
            f" {2 * chunks} words (median of 5)"
        )
        rows.append((0, l, "combine", combine_s))
    cost = harness.account_append_cost(
        harness.HarnessConfig(
            field_token=fld.token,
            n=args.n,
            k=args.k,
            stilde0=args.stilde,
            block_size=args.block_size,
            file_rows=4,
            seed=args.seed if args.seed is not None else 0,
        )
    )
    print(
        f"append bytes at ktilde/2*ktilde: {cost.bytes_small}/{cost.bytes_large}"
        f" (independent: {cost.independent_of_ktilde})"
    )
    table = "".join([
        "file_bytes\tquery_size\tphase\tseconds\n",
        *(f"{size}\t{l}\t{phase}\t{secs:.6f}\n" for size, l, phase, secs in rows),
        *(f"{size}\t0\t{phase}\t{count}\n" for size, phase, count in counts),
        f"0\t0\tappend_bytes\t{cost.bytes_small}\n",
        f"0\t0\tappend_bytes_2k\t{cost.bytes_large}\n",
    ])
    store.replace_files({args.bench_out: lambda: table.encode("ascii")})
    print(f"wrote table to {args.bench_out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="porcrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, meta_required=True):
        p.add_argument(
            "--root",
            default=os.environ.get("PORCRS_ROOT", "porcrs_root"),
            help="server root directory (default: $PORCRS_ROOT or ./porcrs_root)",
        )
        p.add_argument("--meta", required=meta_required, help="client metadata file")
        p.add_argument("--key", default="client.key", help="client keyfile")
        p.add_argument("--seed", type=int, default=None, help="deterministic RNG seed")

    def code_params(p):
        p.add_argument("--field", default="zp:2305843009213693951")
        p.add_argument("--n", type=int, default=15)
        p.add_argument("--k", type=int, default=9)
        p.add_argument("--stilde", type=int, default=12)
        p.add_argument("--eps-q", type=float, default=0.1, dest="eps_q")
        p.add_argument("--eps-p", type=float, default=0.05, dest="eps_p")
        p.add_argument("--window", type=int, default=20)
        p.add_argument("--block-size", type=int, default=4096, dest="block_size")

    p = sub.add_parser("keygen", help="generate and store a secret key")
    p.add_argument("--field", default="zp:2305843009213693951")
    p.add_argument("--key", default="client.key")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("outsource", help="encode, tag, and distribute a file")
    common(p, meta_required=False)
    code_params(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_outsource)

    p = sub.add_parser("append", help="append one row of k blocks from a file")
    common(p)
    p.add_argument("file", help="payload of exactly k blocks")
    p.set_defaults(func=cmd_append)

    p = sub.add_parser("audit", help="challenge all servers and verify")
    common(p)
    p.add_argument("--l", type=int, default=None, help="challenge size")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("repair", help="download, decode, and re-share")
    common(p)
    p.add_argument("--out", default=None, help="where to write the recovered file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("status", help="show metadata and share health")
    common(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("bench", help="timing sweeps over file and query sizes")
    common(p, meta_required=False)
    code_params(p)
    p.add_argument("--sizes", type=_positive_ints, default="1048576", help="comma-separated file sizes")
    p.add_argument(
        "--query-sizes", type=_positive_ints, default="16,64", dest="queries",
        help="comma-separated challenge sizes",
    )
    p.add_argument("--bench-out", default="bench.tsv", dest="bench_out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PorcrsError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
