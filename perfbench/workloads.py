"""The benchmark's three workloads, driven through porcrs's public API.

Each workload builds its initial state in ``setup`` and then runs whole
rounds of operations, one at a time, from one client with servers called
one after another (a closed loop).  An operation returns True when its
output is what the inputs predict; the program raising counts as a
failure too.  ``check`` runs after the timed loop and compares the final
state against reference arithmetic written in ``reference.py``.

All workloads use n = 15 servers, k = 9 and 12 initial parity rows per
column, the command line's defaults.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import statistics

from porcrs import auth, cli, client, server, store
from porcrs.errors import FormatError, PorcrsError
from porcrs.field import field_from_token

import reference

N, K, STILDE = 15, 9, 12


def _wire_bytes(orders, fld) -> int:
    """Block, tag and tag-delta bytes shipped to all servers."""
    elements = 0
    for order in orders:
        elements += len(order.new_block) + len(order.new_tag)
        elements += sum(len(delta) for delta in order.deltas)
    return elements * fld.element_size


def _challenge(meta, rows, rng) -> client.ChallengeSet:
    """The given rows, shuffled, each with a uniform coefficient."""
    rows = list(rows)
    rng.shuffle(rows)
    return client.ChallengeSet(0, tuple((i, meta.field.rand_element(rng)) for i in rows))


class Workload:
    """Shared set-up, append bookkeeping and output checks."""

    name = ""
    field_token = ""
    rows = 0  # data rows outsourced at set-up
    query = 0  # |Q| of the timed audits
    block_size = 4096
    eps_p = 0.05
    audits_per_append = 1
    check_servers = 5  # servers whose every parity cell the check recomputes
    setups = 9  # set-ups per timed run; setup_s is their median
    trace_rounds = 1  # rounds of the traced run, fixed so its counts repeat

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.rng = random.Random(seed)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Key, input bytes and outsource; subclasses place the shares."""
        rng = random.Random(self.seed)
        self.sk, params = client.setup(
            field_from_token(self.field_token), N, K, STILDE,
            eps_p=self.eps_p, block_size=self.block_size, rng=rng,
        )
        fld = params.field
        chunks = client.chunks_per_block(fld, self.block_size)
        self.row_bytes = K * client.block_payload_size(fld, chunks)
        self.expected = bytearray(rng.randbytes(self.rows * self.row_bytes))
        self.wire_bytes = []
        meta, shares = client.outsource(self.sk, params, bytes(self.expected), rng=rng)
        self._place(meta, shares)

    def _place(self, meta, shares) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop the previous set-up's state (untimed, before the next one)."""

    def append_wire_bytes(self) -> int | None:
        """Block, tag and tag-delta bytes of one append (untimed)."""
        return statistics.median_low(self.wire_bytes) if self.wire_bytes else None

    def close(self) -> None:
        """Remove what the workload wrote."""

    def next_row(self) -> bytes:
        """Payload of the next appended row, drawn before timing starts."""
        return self.rng.randbytes(self.row_bytes)

    # -- checks against reference arithmetic ------------------------------

    def _check_states(self, meta, states) -> list[str]:
        """Data cells, row code and column code of the final shares."""
        fld = meta.field
        ref = reference.reference_for(fld.token)
        problems = []
        payload = len(self.expected) // (meta.ktilde * K)
        if len(self.expected) != meta.ktilde * K * payload:
            return [f"expected {len(self.expected)} bytes for {meta.ktilde} rows"]
        for state in states:
            if state is None or state.r != meta.r or state.ctr != meta.ctr:
                return [f"server {getattr(state, 'j', '?')} has the wrong shape"]
        # Servers 1..k hold the input and appended blocks verbatim.
        for j0 in range(K):
            cells = states[j0].cells
            for i0 in range(meta.ktilde):
                off = (i0 * K + j0) * payload
                if fld.chunks_to_payload(cells[i0][0]) != bytes(self.expected[off : off + payload]):
                    problems.append(f"server {j0 + 1} row {i0 + 1}: data cell differs")
                    break
        # Servers k+1..n hold the dispersal parity of a sample of rows,
        # always including every appended row and every parity row.
        row_code = reference.canonical_rows(ref, N - K, K)
        picks = set(self.rng.sample(range(meta.r), min(20, meta.r)))
        picks.update(range(self.rows - 1, meta.r))
        for i0 in sorted(picks):
            message = [states[j0].cells[i0][0] for j0 in range(K)]
            for t, coeffs in enumerate(row_code):
                if not ref.equal(states[K + t].cells[i0][0], ref.combine(coeffs, message)):
                    problems.append(f"row {i0 + 1}: server {K + t + 1} row parity differs")
        # Every parity cell of a sample of servers equals a fresh column
        # encode of that server's data cells (append = fresh outsource).
        col_code = reference.canonical_rows(ref, meta.stilde, meta.ktilde)
        servers = sorted(self.rng.sample(range(N), self.check_servers))
        for j0 in servers:
            cells = states[j0].cells
            data = [cells[i0][0] for i0 in range(meta.ktilde)]
            for slot, coeffs in enumerate(col_code):
                if not ref.equal(cells[meta.ktilde + slot][0], ref.combine(coeffs, data)):
                    problems.append(f"server {j0 + 1}: parity slot {slot + 1} differs")
        return problems


class MemoryWorkload(Workload):
    """Servers are in-memory states; a round is one append and its audits."""

    def _place(self, meta, shares) -> None:
        self.meta = meta
        self.states = client.make_server_states(meta, shares)
        self._new_counter(meta)

    def reset(self) -> None:
        self.meta = self.states = None

    # -- audit challenges ---------------------------------------------------
    #
    # Every timed audit challenges exactly two rows whose PRF masks the
    # client has not computed at the current append counter, and |Q| - 2
    # older data rows.  The first audit after an append takes the newest
    # row and a parity row, later ones two other parity rows (every parity
    # row moves to a new counter on each append).  The composition is fixed
    # because it sets the cost: in gf2:16 one uncached cell costs as much as
    # the rest of the audit, so drawing rows uniformly over the grid (as
    # client.challenge does) would make each audit's cost depend on how many
    # parity or unaudited rows it drew.

    def _new_counter(self, meta) -> None:
        """After an append: the newest row and the parity rows are fresh."""
        parity = range(meta.ktilde + 1, meta.r + 1)
        self._fresh = [meta.ktilde, *self.rng.sample(parity, 2 * self.audits_per_append - 1)]

    def _audit_rows(self, meta) -> list[int]:
        fresh, self._fresh = self._fresh[:2], self._fresh[2:]
        return fresh + self.rng.sample(range(1, meta.ktilde), self.query - len(fresh))

    def append(self, payload: bytes):
        meta = self.meta
        orders = client.append(self.sk, meta, client.row_blocks_from_payload(meta, payload))
        for state, order in zip(self.states, orders):
            server.apply_append(state, order)
        self.expected += payload
        self.wire_bytes.append(_wire_bytes(orders, meta.field))
        self._new_counter(meta)
        return True

    def audit(self, rows=None) -> bool:
        meta = self.meta
        q = _challenge(meta, rows or self._audit_rows(meta), self.rng)
        proof = [server.prove(state, q) for state in self.states]
        return all(client.verify(self.sk, meta, q, proof))

    def warm_up(self) -> list:
        """Untimed operations before the timed loop."""
        return [("audit", self.audit)]

    def round(self) -> list:
        payload = self.next_row()
        return [("append", lambda: self.append(payload))] + [
            ("audit", self.audit)
        ] * self.audits_per_append

    def check(self) -> list[str]:
        return self._check_states(self.meta, self.states)


class ArchiveGf2(MemoryWorkload):
    """gf2:16, 4 KiB blocks (2048 chunks a cell), a 2 MiB file.

    PRF, tagging and numpy field ops dominate; the column code is short
    enough to cost nothing, and every cell's PRF vector fits the PRF cache,
    which a full-height audit fills before timing starts.
    """

    name = "archive-gf2"
    field_token = "gf2:16"
    rows = 56
    query = 8
    audits_per_append = 4
    setups = 7
    trace_rounds = 4

    def warm_up(self) -> list:
        """Audit every data row once, so that their PRF masks are cached.

        Parity rows are left out: they are still at counter 0, the context
        that the rows appended next will have, and cached masks for them
        would make the first appended rows' audits cheaper than later ones.
        """
        return [("audit", lambda: self.audit(range(1, self.meta.ktilde + 1)))]


class LogZp(MemoryWorkload):
    """zp:2^61-1, one element per block, a 2x10^4-row file.

    Each append rebuilds the column code at full height on the client and
    on every server; the file's 3x10^5 cells overflow the PRF cache.
    """

    name = "log-zp"
    field_token = "zp:2305843009213693951"
    rows = 20000
    query = 100
    setups = 3
    trace_rounds = 40


class DepotZp(Workload):
    """zp shares kept as files; appends, audits and repairs run as porcrs
    commands, through the program's own command functions (``cli.main``).

    A round appends a few rows and audits, damages the depot (deletes
    some share files, tampers cells on others so that some rows need the
    column code), audits again and repairs.  Every command reads what it
    needs from disk: metadata, key and share files.  eps_p is set so that
    the parity fraction stays above it and repair keeps stilde; at the
    default 0.05 repair would grow stilde to about 11% of the height.
    """

    name = "depot-zp"
    field_token = "zp:2305843009213693951"
    rows = 1000
    query = 100
    eps_p = 0.005
    appends_per_round = 6
    wiped_servers = 3
    tampered_servers = 4
    bad_rows = 3  # rows tampered on all tampered servers: need column decoding
    scattered = 6  # single tampered cells elsewhere: row decoding suffices
    trace_rounds = 2

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.root = os.path.join(scratch, f"depot-{seed}-{os.getpid()}")
        self.meta_path = os.path.join(self.root, "file.meta")
        self.key_path = os.path.join(self.root, "client.key")
        self.recovered_path = os.path.join(self.root, "recovered")

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        super().setup()

    def _place(self, meta, shares) -> None:
        auth.write_keyfile(self.key_path, self.sk, meta.field)
        store.write_share_tree(self.root, client.make_server_states(meta, shares))
        store.write_meta(meta, self.meta_path)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _porcrs(self, command: str, *args) -> None:
        """One porcrs command on the depot, in this process; raises unless
        it exits with 0."""
        argv = [command, "--root", self.root, "--meta", self.meta_path, "--key", self.key_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + [str(a) for a in args])
        if code != 0:
            said = (err.getvalue() or out.getvalue()).strip().splitlines()
            raise RuntimeError(f"porcrs {command} exited with {code}: {said[-1] if said else ''}")

    def _share(self, meta, j: int):
        try:
            return store.read_share(store.share_path(self.root, j, meta.fid))
        except (OSError, FormatError):
            return None

    # -- porcrs commands ----------------------------------------------------

    def append(self, path: str, payload: bytes) -> bool:
        """porcrs append: every share file is read and rewritten."""
        self._porcrs("append", path)
        self.expected += payload
        return True

    def audit(self, seed: int, rows: int | None = None) -> bool:
        """porcrs audit: proofs are made from the share files on disk."""
        self._porcrs("audit", "--l", rows or self.query, "--seed", seed)
        return True

    def repair(self) -> bool:
        """porcrs repair: read the surviving shares, decode, write all back."""
        self._porcrs("repair", "--out", self.recovered_path)
        with open(self.recovered_path, "rb") as fh:
            return fh.read() == bytes(self.expected)

    def clean_audit(self, seed: int) -> bool:
        """After a repair stilde is unchanged and an audit of every row
        passes on every server."""
        meta = store.read_meta(self.meta_path)
        return meta.stilde == STILDE and self.audit(seed, meta.r)

    def damaged_audit(self) -> bool:
        """The audit after the damage, made as ``porcrs audit`` makes it but
        with the challenge in hand, so that its verdicts can be predicted."""
        meta = store.read_meta(self.meta_path)
        sk = auth.read_keyfile(self.key_path, meta.field)
        q = client.challenge(meta, self.query, self.rng)
        proof = []
        for j in range(1, N + 1):
            state = self._share(meta, j)
            try:
                proof.append(None if state is None else server.prove(state, q))
            except PorcrsError:
                proof.append(None)
        return client.verify(sk, meta, q, proof) == self._predicted_verdicts(q)

    def append_wire_bytes(self) -> int:
        """Counted from the orders of one more append to the final depot,
        made on a copy of its metadata and shipped nowhere."""
        meta = store.read_meta(self.meta_path)
        sk = auth.read_keyfile(self.key_path, meta.field)
        row = client.row_blocks_from_payload(meta, self.next_row())
        return _wire_bytes(client.append(sk, meta, row), meta.field)

    # -- damage -------------------------------------------------------------

    def damage(self) -> bool:
        """Delete some share files and tamper cells on others (untimed)."""
        rng = self.rng
        meta = store.read_meta(self.meta_path)
        fld = meta.field
        servers = rng.sample(range(1, N + 1), self.wiped_servers + self.tampered_servers)
        self.wiped = set(servers[: self.wiped_servers])
        tampered = servers[self.wiped_servers :]
        bad = rng.sample(range(1, meta.r + 1), self.bad_rows)
        cells = [(i, j) for j in tampered for i in bad]
        others = [j for j in range(1, N + 1) if j not in self.wiped]
        while len(cells) < len(tampered) * self.bad_rows + self.scattered:
            cell = (rng.randrange(1, meta.r + 1), rng.choice(others))
            if cell[0] not in bad and cell not in cells:
                cells.append(cell)
        self.tampered = {}  # (row, server) -> amount added to the block
        for j in others:
            mine = [i for i, jj in cells if jj == j]
            if not mine:
                continue
            path = store.share_path(self.root, j, meta.fid)
            state = store.read_share(path)
            for i in mine:
                block, tag = state.cells[i - 1]
                delta = rng.randrange(1, fld.order)
                block = (block[0] + delta) % fld.order, *block[1:]
                state.cells[i - 1] = (fld.vec_from_ints(block), tag)
                self.tampered[(i, j)] = delta
            store.write_share(state, path)
        for j in self.wiped:
            os.remove(store.share_path(self.root, j, meta.fid))
        return True

    def _predicted_verdicts(self, q) -> list[bool]:
        """A wiped server fails; a tampered one fails when its challenged
        tampered cells move its aggregate block; every other server passes."""
        ref = reference.PrimeRef(field_from_token(self.field_token).order)
        verdicts = []
        for j in range(1, N + 1):
            if j in self.wiped:
                verdicts.append(False)
                continue
            shift = 0
            for i, nu in q.entries:
                shift = ref.add(shift, ref.mul(nu, self.tampered.get((i, j), 0)))
            verdicts.append(shift == 0)
        return verdicts

    # -- rounds ---------------------------------------------------------------

    def _seed(self) -> int:
        return self.rng.randrange(1 << 32)

    def warm_up(self) -> list:
        return [("audit", lambda seed=self._seed(): self.audit(seed))]

    def round(self) -> list:
        """The round's payload files are written here, before timing."""
        ops = []
        for n in range(self.appends_per_round):
            payload = self.next_row()
            path = os.path.join(self.root, f"row-{n}.bin")
            with open(path, "wb") as fh:
                fh.write(payload)
            ops.append(("append", lambda path=path, payload=payload: self.append(path, payload)))
            ops.append(("audit", lambda seed=self._seed(): self.audit(seed)))
        ops += [
            ("damage", self.damage),
            ("audit_damaged", self.damaged_audit),
            ("repair", self.repair),
            ("audit_full", lambda seed=self._seed(): self.clean_audit(seed)),
        ]
        return ops

    def surviving_tampered_cells(self) -> int:
        return len(self.tampered)

    def check(self) -> list[str]:
        meta = store.read_meta(self.meta_path)
        states = [self._share(meta, j) for j in range(1, N + 1)]
        return self._check_states(meta, states)


WORKLOADS = {cls.name: cls for cls in (ArchiveGf2, LogZp, DepotZp)}
