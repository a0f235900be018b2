"""Epoch-structured adversarial simulation and cost accounting.

Each epoch runs four phases against in-memory servers: the client appends
rows, the adversary mutates chosen server states in place (it may corrupt
any number of servers -- there is no honesty quorum), the client audits,
and the client repairs via redistribution when a server's recent failure
fraction crosses eps_q.  Adversary strategies receive every audit verdict
through a callback; none of the built-in strategies exploits it.

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

from . import client, server
from .errors import ParameterError
from .field import field_from_token


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


class Adversary:
    """Mutates server states in place between append and audit phases."""

    def before_appends(self, servers, rng) -> None:
        pass

    def corrupt(self, servers, rng) -> list:
        """Returns the 1-based indices of servers it touched."""
        return []

    def observe(self, verdicts) -> None:
        """Audit verdicts, exposed per the adaptive-adversary interface."""


class NullAdversary(Adversary):
    pass


class WipeAdversary(Adversary):
    """Deletes the whole storage of `budget` random servers each epoch."""

    def __init__(self, budget: int, fraction: float):
        self.budget = budget

    def corrupt(self, servers, rng):
        hit = rng.sample(range(len(servers)), min(self.budget, len(servers)))
        for j0 in hit:
            servers[j0].cells = [None] * len(servers[j0].cells)
        return [j0 + 1 for j0 in hit]


class TamperAdversary(Adversary):
    """Perturbs a fraction of cells (block only) on `budget` servers."""

    def __init__(self, budget: int, fraction: float):
        self.budget = budget
        self.fraction = fraction

    def corrupt(self, servers, rng):
        hit = rng.sample(range(len(servers)), min(self.budget, len(servers)))
        for j0 in hit:
            state = servers[j0]
            fld = state.field
            r = len(state.cells)
            count = max(1, math.floor(self.fraction * r))
            bump = fld.vec_from_ints([1] + [0] * (state.chunks - 1))
            for i0 in rng.sample(range(r), min(count, r)):
                cell = state.cells[i0]
                if cell is None:
                    continue
                state.cells[i0] = (fld.vec_add(cell[0], bump), cell[1])
        return [j0 + 1 for j0 in hit]


class RollbackAdversary(Adversary):
    """Restores one server's pre-append parity rows (a freshness attack)."""

    def __init__(self, budget: int, fraction: float):
        self.budget = max(1, budget)
        self._snapshots = None

    def before_appends(self, servers, rng):
        self._snapshots = [
            (state.ktilde, [state.cells[state.ktilde + t] for t in range(state.stilde)])
            for state in servers
        ]

    def corrupt(self, servers, rng):
        if self._snapshots is None:
            return []
        hit = rng.sample(range(len(servers)), min(self.budget, len(servers)))
        for j0 in hit:
            state = servers[j0]
            _, old_parity = self._snapshots[j0]
            for t, cell in enumerate(old_parity):
                state.cells[state.ktilde + t] = cell
        return [j0 + 1 for j0 in hit]


_STRATEGIES = {
    "null": lambda b, f: NullAdversary(),
    "wipe": WipeAdversary,
    "tamper": TamperAdversary,
    "rollback": RollbackAdversary,
}


def make_adversary(config: HarnessConfig) -> Adversary:
    try:
        factory = _STRATEGIES[config.adversary]
    except KeyError:
        raise ParameterError(f"unknown adversary strategy {config.adversary!r}") from None
    if not 0 <= config.budget <= config.n:
        raise ParameterError("adversary budget must lie in [0, n]")
    if not 0 <= config.corrupt_fraction <= 1:
        raise ParameterError("corruption fraction must lie in [0, 1]")
    return factory(config.budget, config.corrupt_fraction)


def _timed(timings: dict, phase: str, start: float) -> float:
    now = time.perf_counter()
    timings[phase] = timings.get(phase, 0.0) + (now - start)
    return now


def run(config: HarnessConfig) -> ExperimentReport:
    """Deterministic under the seed; audit failures are data, not errors."""
    rng = random.Random(config.seed)
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
    data = rng.randbytes(max(1, config.file_rows * config.k * payload))
    meta, shares = client.outsource(sk, params, data, rng=rng)
    servers = client.make_server_states(meta, shares)
    adversary = make_adversary(config)

    report = ExperimentReport(config=config, epochs=[])
    ever_corrupted: set[int] = set()
    timings = report.timings

    for epoch in range(config.epochs):
        stats = EpochStats(epoch=epoch, verdicts=[], corrupted=[], append_bytes=[])
        t0 = time.perf_counter()

        adversary.before_appends(servers, rng)
        for _ in range(config.appends_per_epoch):
            row = client.row_blocks_from_payload(
                meta, rng.randbytes(payload * config.k)
            )
            orders = client.append(sk, meta, row)
            stats.append_bytes.append(sum(o.wire_size(fld) for o in orders))
            for state, order in zip(servers, orders):
                server.apply_append(state, order)
        t0 = _timed(timings, "append", t0)

        stats.corrupted = adversary.corrupt(servers, rng)
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
            adversary.observe(verdicts)
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
    """A field that counts the elements its vec_scale and vec_combine
    multiply, and delegates everything else."""

    def __init__(self, fld):
        self._fld = fld
        self.mults = 0

    def __getattr__(self, name):
        return getattr(self._fld, name)

    def vec_scale(self, s, v):
        self.mults += len(v)
        return self._fld.vec_scale(s, v)

    def vec_combine(self, coeffs, vecs):
        self.mults += len(coeffs) * len(vecs[0])
        return self._fld.vec_combine(coeffs, vecs)


def account_append_cost(config: HarnessConfig) -> AppendCost:
    """Instrument one append at file height ktilde and again at 2*ktilde."""
    fld = field_from_token(config.field_token)

    def one(file_rows: int):
        rng = random.Random(config.seed)
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
        payload = client.block_payload_size(
            fld, client.chunks_per_block(fld, config.block_size)
        )
        data = rng.randbytes(file_rows * config.k * payload)
        meta, shares = client.outsource(sk, params, data, rng=rng)
        servers = client.make_server_states(meta, shares)
        row = client.row_blocks_from_payload(meta, rng.randbytes(payload * config.k))
        orders = client.append(sk, meta, row)
        nbytes = sum(o.wire_size(fld) for o in orders)
        counting = _CountingField(fld)
        for state, order in zip(servers, orders):
            state.field = counting
            server.apply_append(state, order)
        return nbytes, counting.mults

    bytes_small, mults_small = one(config.file_rows)
    bytes_large, mults_large = one(2 * config.file_rows)
    chunks = client.chunks_per_block(fld, config.block_size)
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

def read_config(path) -> HarnessConfig:
    """key=value text mirroring HarnessConfig fields."""
    kinds = {f.name: f.type for f in fields(HarnessConfig)}
    defaults = HarnessConfig()
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in kinds:
                raise ParameterError(f"config line {lineno}: unknown entry {line!r}")
            current = getattr(defaults, key)
            try:
                if isinstance(current, int):
                    overrides[key] = int(value)
                elif isinstance(current, float):
                    overrides[key] = float(value)
                else:
                    overrides[key] = value.strip()
            except ValueError:
                raise ParameterError(
                    f"config line {lineno}: bad value for {key}: {value!r}"
                ) from None
    return replace(defaults, **overrides)


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
    """Human-readable summary plus a TSV of per-audit verdicts."""
    with open(text_path, "w") as fh:
        fh.write(format_report(report))
    with open(table_path, "w") as fh:
        fh.write("epoch\taudit\tserver\tverdict\tcorrupted\n")
        for stats in report.epochs:
            corrupted = set(stats.corrupted)
            for a, verdicts in enumerate(stats.verdicts):
                for j, ok in enumerate(verdicts, 1):
                    fh.write(
                        f"{stats.epoch}\t{a}\t{j}\t{int(ok)}\t{int(j in corrupted)}\n"
                    )
