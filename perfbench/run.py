"""Benchmark of porcrs: one workload, one seed, one run.

    python3 perfbench/run.py --workload log-zp --seed 1 --seconds 15 --trace 0

Run it from the root of a source tree: it imports the program from
``./src`` and nothing else.  With ``--trace 0`` it sets the workload up
several times, runs whole rounds of operations for ``--seconds`` seconds
and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed
number of rounds with spans around every call into the program's layers
and reports per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = ".perfbench_out"

# Calibration.  This machine's speed drifts by a factor of up to 1.8 over
# seconds to minutes, and the program's operations drift with it.  After
# every operation the benchmark times a fixed slice of work: numpy XOR
# passes over 680 KiB and 4500 keyed BLAKE2b calls.  Of the slices tried (an
# interpreter-only loop, a walk over a 40 MB object graph, this one), it
# tracked the program's own operations best.  An operation's wall time is
# scaled by REFERENCE_CAL_S / (median of the WINDOW slices before it and
# the WINDOW after it), which reports it at one reference speed: about the
# slice's time on the machine the reference figures in README.md come from
# when that machine ran fast.  The window follows drift over seconds and
# smooths the slices' own jitter (consecutive slices differ by 4%).
REFERENCE_CAL_S = 0.0030
WINDOW = 8
_CAL_ARRAY = np.arange(1 << 20, dtype=np.uint16)
_CAL_SPAN = 349_525  # elements XORed per pass, from overlapping slices
_CAL_HASH = hashlib.blake2b(key=bytes(32), digest_size=16)


def _calibration_slice() -> float:
    t0 = time.perf_counter()
    for _ in range(18):
        _CAL_ARRAY[:_CAL_SPAN] ^= _CAL_ARRAY[1 : _CAL_SPAN + 1]
    for i in range(4500):
        h = _CAL_HASH.copy()
        h.update(i.to_bytes(8, "big"))
        h.digest()
    return time.perf_counter() - t0


class Clock:
    """Times operations, with calibration slices between them."""

    def __init__(self):
        self.slices: list[float] = []
        self.ops: list[tuple[str, float, int]] = []  # kind, wall, next slice
        self.calibrate(WINDOW)

    def calibrate(self, count: int) -> None:
        self.slices.extend(_calibration_slice() for _ in range(count))

    def run(self, kind: str, fn, slices: int = 1):
        """fn(); a long operation asks for a burst of slices after it."""
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            self.calibrate(slices)
        self.ops.append((kind, seconds, len(self.slices) - slices))
        return result

    def samples(self, kind: str) -> tuple[list[float], list[float]]:
        """Scaled and wall seconds of every operation of one kind."""
        scaled, wall = [], []
        for k, seconds, at in self.ops:
            if k == kind:
                window = self.slices[max(0, at - WINDOW) : at + WINDOW]
                scaled.append(seconds * REFERENCE_CAL_S / statistics.median(window))
                wall.append(seconds)
        return scaled, wall

    def total(self) -> float:
        """Scaled seconds of all operations."""
        return sum(sum(self.samples(kind)[0]) for kind in {op[0] for op in self.ops})


class Tally:
    """Operations attempted and failed; a failure is wrong output or a raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed: dict[str, int] = {}
        self.errors: list[str] = []

    def op(self, kind: str, fn, clock: Clock | None = None, slices: int = 1) -> bool:
        self.attempted += 1
        try:
            ok = clock.run(kind, fn, slices) if clock is not None else fn()
        except Exception as exc:  # the program's fault is a failed operation
            ok = None
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        if ok is False:
            self.errors.append(f"{kind}: wrong output")
        if ok:
            self.passed[kind] = self.passed.get(kind, 0) + 1
        else:
            self.failed += 1
        return bool(ok)


def _import_program():
    """Import porcrs from ./src of the current directory, or exit 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "porcrs", "__init__.py")):
        print(f"error: no program source at {src}/porcrs", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import porcrs

    if not os.path.abspath(porcrs.__file__).startswith(src + os.sep):
        print(f"error: porcrs imported from {porcrs.__file__}", file=sys.stderr)
        sys.exit(2)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _run_rounds(wl, tally: Tally, clock: Clock, until: float) -> int:
    """Whole rounds until the deadline has passed."""
    done = 0
    while not done or time.perf_counter() < until:
        for kind, fn in wl.round():
            tally.op(kind, fn, clock)
        done += 1
    return done


def _check(wl) -> list[str]:
    """The workload's output checks; a raise is a failed check too."""
    try:
        return wl.check()
    except Exception as exc:  # a broken program must still get a verdict
        return [f"check: {type(exc).__name__}: {exc}"]


# End-to-end metrics: (operation kind, metric, unit, factor from seconds).
# Only those every workload measures go into the JSON line; repair_s and
# audit_damaged_ms are printed for depot-zp alone.
TIMED = (
    ("setup", "setup_s", "s", 1.0),
    ("append", "append_ms", "ms", 1e3),
    ("audit", "audit_ms", "ms", 1e3),
    ("repair", "repair_s", "s", 1.0),
    ("audit_damaged", "audit_damaged_ms", "ms", 1e3),
)
REPORTED = ("setup_s", "append_ms", "audit_ms", "append_wire_bytes", "peak_rss_mib")


def run_timed(wl, seconds: float):
    tally, clock = Tally(), Clock()
    for _ in range(wl.setups):
        wl.reset()
        gc.collect()
        tally.op("setup", lambda: wl.setup() or True, clock, WINDOW)
    for kind, fn in wl.warm_up():
        tally.op(kind, fn)
    gc.collect()
    start = time.perf_counter()
    rounds = _run_rounds(wl, tally, clock, start + seconds)
    elapsed = time.perf_counter() - start
    peak = _peak_rss_mib()
    problems = _check(wl)
    if problems:
        # The check sees the appends' combined effect: all of them failed.
        tally.failed += tally.passed.get("append", 0)
    metrics, lines = {}, [
        f"workload={wl.name} seed={wl.seed} rounds={rounds} timed={elapsed:.1f}s"
    ]
    for kind, name, unit, factor in TIMED:
        scaled, wall = clock.samples(kind)
        if not scaled:
            continue
        med = statistics.median(scaled) * factor
        lo, hi = (v * factor for v in _quartiles(scaled))
        raw = statistics.median(wall) * factor
        lines.append(
            f"{name:18s} {med:12.4f} {unit:5s} n={len(scaled):<4d} "
            f"q1={lo:.4f} q3={hi:.4f} wall-median={raw:.4f}"
        )
        metrics[name] = {"value": med, "unit": unit}
    try:
        wire = wl.append_wire_bytes()
    except Exception as exc:  # a broken program must still get a verdict
        wire = None
        problems.append(f"append_wire_bytes: {type(exc).__name__}: {exc}")
    if wire is not None:
        metrics["append_wire_bytes"] = {"value": wire, "unit": "bytes"}
        lines.append(f"{'append_wire_bytes':18s} {wire:12d} bytes")
    metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    lines.append(f"{'peak_rss_mib':18s} {peak:12.1f} MiB   n=1")
    return tally, problems, {k: metrics[k] for k in REPORTED if k in metrics}, lines


# -- traced run ---------------------------------------------------------------

# Per-layer metrics: (metric, unit, span names it needs, how to read it).
# A metric whose spans are all missing from the program is left out.
def _layer_table(tracer):
    per = tracer.per_name()
    counts = tracer.counts

    def self_s(*names):
        return lambda: sum(per.get(n, (0, 0.0))[1] for n in names)

    def calls(name):
        return lambda: per.get(name, (0, 0.0))[0]

    def count(key):
        return lambda: counts.get(key, 0)

    def ratio(num, den):
        return lambda: num() / den() if den() else 0.0

    lookups, hits = calls("auth.prf_vector_cached"), count("auth.prf_cache_hits")
    plans, masks = calls("crs.recovery_plan"), tracer.distinct_masks
    return (
        ("field.vec_combine_s", "s", ("field.vec_combine",), self_s("field.vec_combine")),
        ("field.vec_combine_calls", "count", ("field.vec_combine",), calls("field.vec_combine")),
        ("field.vec_scale_s", "s", ("field.vec_scale",), self_s("field.vec_scale")),
        ("field.mults", "count", ("field.vec_combine", "field.vec_scale"), count("field.mults")),
        ("field.inversions", "count", ("field.inv",), calls("field.inv")),
        ("field.inv_s", "s", ("field.inv",), self_s("field.inv")),
        ("crs.canonical_matrix_s", "s", ("crs.canonical_matrix",), self_s("crs.canonical_matrix")),
        ("crs.canonical_matrix_calls", "count", ("crs.canonical_matrix",), calls("crs.canonical_matrix")),
        ("crs.canonical_columns", "count", ("crs.canonical_matrix",), count("crs.canonical_columns")),
        ("crs.encode_vectors_s", "s", ("crs.encode_vectors",), self_s("crs.encode_vectors")),
        ("crs.recovery_plan_s", "s", ("crs.recovery_plan",), self_s("crs.recovery_plan")),
        ("crs.recovery_plans", "count", ("crs.recovery_plan",), plans),
        ("crs.distinct_erasure_masks", "count", ("crs.recovery_plan",), masks),
        ("crs.plans_per_mask", "ratio", ("crs.recovery_plan",), ratio(plans, masks)),
        ("crs.plan_coefficients_s", "s", ("crs.plan_coefficients",), self_s("crs.plan_coefficients")),
        ("crs.apply_vectors_s", "s", ("crs.apply_vectors",), self_s("crs.apply_vectors")),
        ("auth.prf_vector_s", "s", ("auth.prf_vector",), self_s("auth.prf_vector")),
        ("auth.prf_vector_calls", "count", ("auth.prf_vector",), calls("auth.prf_vector")),
        ("auth.prf_chunks", "count", ("auth.prf_vector",), count("auth.prf_chunks")),
        ("auth.tag_block_s", "s", ("auth.tag_block",), self_s("auth.tag_block")),
        ("auth.tag_delta_s", "s", ("auth.tag_delta",), self_s("auth.tag_delta")),
        ("auth.prf_cache_lookups", "count", ("auth.prf_vector_cached",), lookups),
        ("auth.prf_cache_hits", "count", ("auth.prf_vector_cached",), hits),
        ("auth.prf_cache_hit_ratio", "ratio", ("auth.prf_vector_cached",), ratio(hits, lookups)),
        ("auth.verify_block_s", "s", ("auth.verify_block",), self_s("auth.verify_block")),
        ("auth.verify_block_rejects", "count", ("auth.verify_block",), count("auth.verify_block_rejects")),
        ("client.outsource_s", "s", ("client.outsource",), self_s("client.outsource")),
        ("client.append_s", "s", ("client.append",), self_s("client.append")),
        ("client.verify_s", "s", ("client.verify",), self_s("client.verify")),
        ("client.redistribute_s", "s", ("client.redistribute",), self_s("client.redistribute")),
        ("server.apply_append_s", "s", ("server.apply_append",), self_s("server.apply_append")),
        ("server.prove_s", "s", ("server.prove",), self_s("server.prove")),
        ("store.read_share_s", "s", ("store.read_share",), self_s("store.read_share")),
        ("store.write_share_s", "s", ("store.write_share",), self_s("store.write_share")),
        ("store.meta_s", "s", ("store.read_meta", "store.write_meta"),
         self_s("store.read_meta", "store.write_meta")),
        ("store.bytes_read", "bytes", ("store.read_share", "store.read_meta"), count("store.bytes_read")),
        ("store.bytes_written", "bytes", ("store.write_share", "store.write_meta"),
         count("store.bytes_written")),
    )


def _fixed_pass(wl, tally: Tally, clock: Clock, span=None, on_op=None) -> None:
    """One set-up, the warm-up and the workload's fixed number of rounds."""

    def do(kind, fn):
        if span is None:
            tally.op(kind, fn, clock)
        else:
            _traced_op(tally, clock, span, kind, fn, on_op)

    do("setup", lambda: wl.setup() or True)
    for kind, fn in wl.warm_up():
        do(kind, fn)
    gc.collect()
    for _ in range(wl.trace_rounds):
        for kind, fn in wl.round():
            do(kind, fn)


def _traced_op(tally, clock, span, kind, fn, on_op):
    with span("op." + kind):
        ok = tally.op(kind, fn, clock)
    if on_op is not None:
        on_op(kind, ok)


def run_traced(wl, twin):
    """Traced pass on wl, then the same work untraced on twin.

    twin has another seed, so that its key and file id differ and the
    traced pass's entries in the program's PRF cache serve it nothing.
    """
    from spans import Tracer

    tally, clock, tracer = Tally(), Clock(), Tracer()
    problems = []
    rejects_at = [0]

    def on_op(kind, ok):
        # Repair turns exactly the surviving tampered cells into erasures.
        rejects = tracer.counts.get("auth.verify_block_rejects", 0)
        if kind == "damage":
            rejects_at[0] = rejects
        if kind == "repair" and "auth.verify_block" in tracer.present:
            seen, want = rejects - rejects_at[0], wl.surviving_tampered_cells()
            if seen != want:
                problems.append(f"repair rejected {seen} cells, {want} were tampered")

    tracer.install()
    try:
        _fixed_pass(wl, tally, clock, tracer.span, on_op)
    finally:
        tracer.remove()
    problems += _check(wl)
    untraced = Clock()
    _fixed_pass(twin, Tally(), untraced)
    traced_s, untraced_s = clock.total(), untraced.total()

    metrics, lines = {}, [f"workload={wl.name} seed={wl.seed} traced rounds={wl.trace_rounds}"]
    for name, unit, needs, read in _layer_table(tracer):
        if not any(n in tracer.present for n in needs):
            continue
        value = read()
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:28s} {value:16.6f} {unit}" if unit in ("s", "ratio")
                     else f"{name:28s} {value:16d} {unit}")
    metrics["py.gc_s"] = {"value": tracer.gc_seconds, "unit": "s"}
    metrics["py.gc_collections"] = {"value": tracer.counts.get("py.gc_collections", 0), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.span_start), "unit": "count"}
    lines.append(f"{'py.gc_s':28s} {tracer.gc_seconds:16.6f} s")
    lines.append(f"{'py.gc_collections':28s} {metrics['py.gc_collections']['value']:16d} count")
    lines.append(
        f"traced {traced_s:.3f} s, untraced {untraced_s:.3f} s (reference speed), "
        f"overhead {traced_s - untraced_s:.3f} s over {len(tracer.span_start)} spans"
    )
    os.makedirs(SCRATCH, exist_ok=True)
    tracer.save(os.path.join(SCRATCH, f"trace-{wl.name}-{wl.seed}.npz"))
    return tally, problems, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import reference
    from workloads import WORKLOADS

    reference.self_check()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, SCRATCH)
    try:
        if args.trace:
            twin = cls(args.seed + 7919, SCRATCH)
            try:
                tally, problems, metrics, lines = run_traced(wl, twin)
            finally:
                twin.close()
        else:
            tally, problems, metrics, lines = run_timed(wl, args.seconds)
    finally:
        wl.close()

    for line in lines + [f"problem: {p}" for p in problems] + [f"error: {e}" for e in tally.errors]:
        print(line)
    print(f"attempted={tally.attempted} failed={tally.failed}")
    result = {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    os.makedirs(SCRATCH, exist_ok=True)
    out = os.path.join(SCRATCH, f"result-{wl.name}-{wl.seed}-t{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
