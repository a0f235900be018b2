"""Epoch-structured adversarial simulation and cost accounting.

Each epoch runs four phases against in-memory servers: the client appends
rows, the adversary mutates chosen server states in place (it may corrupt
any number of servers -- there is no honesty quorum), the client audits,
and the client repairs via redistribution when a server's recent failure
fraction crosses eps_q.  An adversary strategy is a plain function: each
epoch `run` draws `budget` servers to hit and hands them to it.

Also houses the audit-evasion estimator: the empirical pass rate of a
server that deleted a fixed number of blocks, compared against the exact
without-replacement product (challenge rows are drawn as a subset, so the
with-replacement power form is only an approximation and is reported
alongside).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field, fields, replace

from . import client, server, store
from .errors import ParameterError
from .field import field_from_token
from .textfile import read_entries


@dataclass
class HarnessConfig:
    field_token: str = "zp:2305843009213693951"
    n: int = 5
    k: int = 3
    stilde0: int = 2
    block_size: int = 4096
    file_rows: int = 4  # initial grid rows (file size = rows * k blocks)
    epochs: int = 3
    appends_per_epoch: int = 1
    audits_per_epoch: int = 2
    challenge_size: int = 3
    adversary: str = "null"
    budget: int = 0  # servers corrupted per epoch
    corrupt_fraction: float = 0.5  # fraction of a hit server's cells
    eps_q: float = 0.1
    eps_p: float = 0.05
    window: int = 20
    seed: int = 0


@dataclass
class EpochStats:
    epoch: int
    verdicts: list  # one list of per-server booleans per audit
    corrupted: list  # server indices the adversary touched this epoch
    append_bytes: list
    redistribute: str | None = None  # "recovered" | "unavailable" | None


@dataclass
class ExperimentReport:
    config: HarnessConfig
    epochs: list
    audits_total: int = 0
    failures_total: int = 0
    cheat_audits: int = 0  # audits of servers the adversary ever touched
    cheat_passes: int = 0
    recoveries: int = 0
    unavailable: int = 0
    timings: dict = dc_field(default_factory=dict)

    @property
    def cheat_pass_rate(self) -> float | None:
        if not self.cheat_audits:
            return None
        return self.cheat_passes / self.cheat_audits


def _null(hit, old_parity, rng, config) -> list:
    """Honest servers: hits none and changes nothing."""
    return []


def _wipe(hit, old_parity, rng, config) -> list:
    """Deletes every cell of each hit server."""
    for state in hit:
        state.cells = [None] * len(state.cells)
    return hit


def _tamper(hit, old_parity, rng, config) -> list:
    """Perturbs the first chunk of a fraction of each hit server's blocks,
    at least one block when the fraction is above 0; tags stay as they are."""
    if not config.corrupt_fraction:
        return []
    for state in hit:
        fld = state.field
        r = len(state.cells)
        count = max(1, math.floor(config.corrupt_fraction * r))
        bump = fld.vec_from_ints([1] + [0] * (state.chunks - 1))
        for i0 in rng.sample(range(r), count):
            cell = state.cells[i0]
            if cell is None:
                continue
            state.cells[i0] = (fld.vec_add(cell[0], bump), cell[1])
    return hit


def _rollback(hit, old_parity, rng, config) -> list:
    """Restores each hit server's parity cells from before the epoch's
    appends (a freshness attack)."""
    for state in hit:
        state.cells[state.ktilde : state.r] = old_parity[state.j - 1]
    return hit


# Each strategy changes the states of the servers hit this epoch, given
# every server's parity cells from before the epoch's appends, and returns
# the states it changed.
STRATEGIES = {"null": _null, "wipe": _wipe, "tamper": _tamper, "rollback": _rollback}


def make_adversary(config: HarnessConfig):
    """The strategy function of a checked config."""
    try:
        strategy = STRATEGIES[config.adversary]
    except KeyError:
        raise ParameterError(f"unknown adversary strategy {config.adversary!r}") from None
    if not 0 <= config.budget <= config.n:
        raise ParameterError("adversary budget must lie in [0, n]")
    if not 0 <= config.corrupt_fraction <= 1:
        raise ParameterError("corruption fraction must lie in [0, 1]")
    return strategy


def _timed(timings: dict, phase: str, start: float) -> float:
    now = time.perf_counter()
    timings[phase] = timings.get(phase, 0.0) + (now - start)
    return now


def _outsourced(config: HarnessConfig, file_rows: int, rng):
    """A key, metadata and server states for a random file of file_rows
    grid rows, all drawn from rng."""
    fld = field_from_token(config.field_token)
    sk, params = client.setup(
        fld,
        config.n,
        config.k,
        config.stilde0,
        config.eps_q,
        config.eps_p,
        config.window,
        config.block_size,
        rng=rng,
    )
    payload = client.block_payload_size(fld, client.chunks_per_block(fld, config.block_size))
    data = rng.randbytes(max(1, file_rows * config.k * payload))
    meta, shares = client.outsource(sk, params, data, rng=rng)
    return sk, meta, client.make_server_states(meta, shares)


def _append_row(sk, meta, servers, rng) -> int:
    """Appends one random row on every server; returns the bytes shipped."""
    payload = client.block_payload_size(meta.field, meta.chunks)
    row = client.row_blocks_from_payload(meta, rng.randbytes(payload * meta.k))
    orders = client.append(sk, meta, row)
    for state, order in zip(servers, orders):
        server.apply_append(state, order)
    return sum(o.wire_size(meta.field) for o in orders)


def run(config: HarnessConfig) -> ExperimentReport:
    """Deterministic under the seed; audit failures are data, not errors."""
    strategy = make_adversary(config)
    hits = 0 if strategy is _null else config.budget
    rng = random.Random(config.seed)
    sk, meta, servers = _outsourced(config, config.file_rows, rng)

    report = ExperimentReport(config=config, epochs=[])
    ever_corrupted: set[int] = set()
    timings = report.timings

    for epoch in range(config.epochs):
        stats = EpochStats(epoch=epoch, verdicts=[], corrupted=[], append_bytes=[])
        t0 = time.perf_counter()

        old_parity = [state.cells[state.ktilde : state.r] for state in servers]
        for _ in range(config.appends_per_epoch):
            stats.append_bytes.append(_append_row(sk, meta, servers, rng))
        t0 = _timed(timings, "append", t0)

        hit = rng.sample(servers, hits)
        stats.corrupted = [state.j for state in strategy(hit, old_parity, rng, config)]
        ever_corrupted.update(stats.corrupted)
        t0 = _timed(timings, "corrupt", t0)

        for _ in range(config.audits_per_epoch):
            q = client.challenge(meta, min(config.challenge_size, meta.r), rng, epoch)
            proof = []
            for state in servers:
                try:
                    proof.append(server.prove(state, q))
                except ParameterError:
                    proof.append(None)
            verdicts = client.verify(sk, meta, q, proof)
            stats.verdicts.append(verdicts)
            report.audits_total += len(verdicts)
            report.failures_total += verdicts.count(False)
            for j in ever_corrupted:
                report.cheat_audits += 1
                if verdicts[j - 1]:
                    report.cheat_passes += 1
        t0 = _timed(timings, "audit", t0)

        if any(client.needs_redistribute(meta, j) for j in range(1, meta.n + 1)):
            dumps = [server.dump_all(state) for state in servers]
            result = client.redistribute(sk, meta, dumps)
            if result is None:
                stats.redistribute = "unavailable"
                report.unavailable += 1
            else:
                stats.redistribute = "recovered"
                report.recoveries += 1
                meta = result.meta
                servers = client.make_server_states(meta, result.shares)
                ever_corrupted.clear()
        _timed(timings, "remediate", t0)

        report.epochs.append(stats)
    return report


# -- audit-evasion probability --------------------------------------------

def exact_pass_rate(r: int, stilde: int, l: int) -> float:
    """P(an l-subset of r rows misses all stilde deleted rows), exactly."""
    if not 0 <= stilde <= r or not 0 <= l <= r:
        raise ParameterError("need 0 <= stilde <= r and 0 <= l <= r")
    ktilde = r - stilde
    if l > ktilde:
        return 0.0
    rate = 1.0
    for t in range(l):
        rate *= (ktilde - t) / (r - t)
    return rate


def power_approx_pass_rate(r: int, stilde: int, l: int) -> float:
    """The with-replacement approximation (ktilde / r) ** l."""
    return ((r - stilde) / r) ** l


def estimate_pcheat(r: int, stilde: int, l: int, trials: int, seed: int = 0) -> float:
    """Empirical pass rate of a server that deleted stilde of its r blocks.

    Each trial deletes stilde uniform rows and draws an l-row challenge;
    the server passes only if the challenge avoids every deleted row.
    """
    if not 0 <= stilde <= r or not 0 <= l <= r:
        raise ParameterError("need 0 <= stilde <= r and 0 <= l <= r")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = random.Random(seed)
    rows = range(r)
    passes = 0
    for _ in range(trials):
        deleted = set(rng.sample(rows, stilde))
        challenged = rng.sample(rows, l)
        if not deleted.intersection(challenged):
            passes += 1
    return passes / trials


# -- append cost accounting ------------------------------------------------

@dataclass
class AppendCost:
    """One append's footprint at two grid heights (ktilde and 2*ktilde)."""

    n: int
    stilde: int
    chunks: int
    bytes_small: int
    bytes_large: int
    server_mults_small: int
    server_mults_large: int

    @property
    def independent_of_ktilde(self) -> bool:
        return (
            self.bytes_small == self.bytes_large
            and self.server_mults_small == self.server_mults_large
        )


class _CountingField:
    """A field that counts the elements its vec_scale, vec_scale_many and
    vec_combine multiply, and delegates everything else."""

    def __init__(self, fld):
        self._fld = fld
        self.mults = 0

    def __getattr__(self, name):
        return getattr(self._fld, name)

    def vec_scale(self, s, v):
        self.mults += len(v)
        return self._fld.vec_scale(s, v)

    def vec_scale_many(self, scalars, v):
        self.mults += len(scalars) * len(v)
        return self._fld.vec_scale_many(scalars, v)

    def vec_combine(self, coeffs, vecs):
        self.mults += len(coeffs) * len(vecs[0])
        return self._fld.vec_combine(coeffs, vecs)


def account_append_cost(config: HarnessConfig) -> AppendCost:
    """Instrument one append at file height ktilde and again at 2*ktilde."""
    if config.file_rows < 1:
        raise ParameterError("cost accounting needs a file of at least one row")

    def one(file_rows: int):
        rng = random.Random(config.seed)
        sk, meta, servers = _outsourced(config, file_rows, rng)
        counting = _CountingField(meta.field)
        for state in servers:
            state.field = counting
        return _append_row(sk, meta, servers, rng), counting.mults, meta.chunks

    bytes_small, mults_small, chunks = one(config.file_rows)
    bytes_large, mults_large, _ = one(2 * config.file_rows)
    return AppendCost(
        n=config.n,
        stilde=config.stilde0,
        chunks=chunks,
        bytes_small=bytes_small,
        bytes_large=bytes_large,
        server_mults_small=mults_small,
        server_mults_large=mults_large,
    )


# -- config and report files ------------------------------------------------

def _config_error(message: str, line: int) -> ParameterError:
    return ParameterError(f"config line {line}: {message}")


def read_config(path) -> HarnessConfig:
    """key=value text mirroring HarnessConfig fields."""
    defaults = HarnessConfig()
    parsers = {f.name: type(getattr(defaults, f.name)) for f in fields(HarnessConfig)}
    return replace(defaults, **read_entries(path, parsers, _config_error))


def _recovery_regime(cfg: HarnessConfig) -> str:
    """Label where the per-epoch budget sits relative to the repair bounds.

    Row-wise erasure decoding tolerates up to n - k freshly wiped servers
    per epoch; schemes with embedded-MAC server codes only tolerate
    floor((n - k) / 2).
    """
    s = cfg.n - cfg.k
    if cfg.budget <= s // 2:
        return f"within-half-bound (b <= {s // 2})"
    if cfg.budget <= s:
        return f"within-erasure-bound (b <= {s})"
    return f"beyond-erasure-bound (b > {s})"


def format_report(report: ExperimentReport) -> str:
    cfg = report.config
    lines = [
        f"adversary={cfg.adversary} budget={cfg.budget} seed={cfg.seed}",
        f"epochs={cfg.epochs} appends/epoch={cfg.appends_per_epoch} "
        f"audits/epoch={cfg.audits_per_epoch} l={cfg.challenge_size}",
        f"recovery_regime={_recovery_regime(cfg)}",
        f"audits_total={report.audits_total} failures_total={report.failures_total}",
        f"recoveries={report.recoveries} unavailable={report.unavailable}",
    ]
    rate = report.cheat_pass_rate
    lines.append(
        "cheat_pass_rate=" + (f"{rate:.6f}" if rate is not None else "n/a")
    )
    for phase, secs in sorted(report.timings.items()):
        lines.append(f"time_{phase}={secs:.6f}")
    for stats in report.epochs:
        for a, verdicts in enumerate(stats.verdicts):
            marks = "".join("P" if v else "F" for v in verdicts)
            lines.append(f"epoch {stats.epoch} audit {a}: {marks}")
        if stats.redistribute:
            lines.append(f"epoch {stats.epoch}: redistribute {stats.redistribute}")
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, text_path, table_path) -> None:
    """Human-readable summary plus a TSV of per-audit verdicts, both or neither."""
    table = ["epoch\taudit\tserver\tverdict\tcorrupted\n"]
    for stats in report.epochs:
        corrupted = set(stats.corrupted)
        for a, verdicts in enumerate(stats.verdicts):
            for j, ok in enumerate(verdicts, 1):
                table.append(f"{stats.epoch}\t{a}\t{j}\t{int(ok)}\t{int(j in corrupted)}\n")
    text = format_report(report)
    store.replace_files({text_path: text.encode, table_path: lambda: "".join(table).encode()})
