"""Spans around calls into the program's layers, taken from outside.

The tracer wraps public functions and methods of ``porcrs`` by name and
records one span per call: name, start, end and the span that was open
when the call began.  Spans are kept in flat arrays in memory and written
out once, at the end of the traced run.  A layer's self time is the sum
of its spans' durations minus the durations of their direct children.

Names are resolved when tracing starts.  A name that the program no
longer has is skipped, so its metrics are absent rather than a crash.
Scalar field ``add``/``mul`` are not wrapped: they run millions of times
and a span each would swamp what they measure.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  "*.attr" wraps attr on every class of
# the module that defines it itself, so that a field method overridden
# per field kind is traced under one name.
TARGETS = (
    ("field.vec_combine", "field", "*.vec_combine"),
    ("field.vec_scale", "field", "*.vec_scale"),
    ("field.inv", "field", "*.inv"),
    ("crs.canonical_matrix", "crs", "canonical_matrix"),
    ("crs.encode_vectors", "crs", "DistributionMatrix.encode_vectors"),
    ("crs.recovery_plan", "crs", "DistributionMatrix.recovery_plan"),
    ("crs.plan_coefficients", "crs", "RecoveryPlan.coefficients"),
    ("crs.apply_vectors", "crs", "RecoveryPlan.apply_vectors"),
    ("auth.prf_vector", "auth", "prf_vector"),
    ("auth.prf_vector_cached", "auth", "prf_vector_cached"),
    ("auth.tag_block", "auth", "tag_block"),
    ("auth.tag_delta", "auth", "tag_delta"),
    ("auth.verify_block", "auth", "verify_block"),
    ("client.outsource", "client", "outsource"),
    ("client.append", "client", "append"),
    ("client.verify", "client", "verify"),
    ("client.redistribute", "client", "redistribute"),
    ("server.apply_append", "server", "apply_append"),
    ("server.prove", "server", "prove"),
    ("store.read_share", "store", "read_share"),
    ("store.write_share", "store", "write_share"),
    ("store.read_meta", "store", "read_meta"),
    ("store.write_meta", "store", "write_meta"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self._masks: set = set()
        self._repairs = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_seconds = 0.0

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, post):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(args, kwargs, result, len(self.span_start) - idx - 1)
            return result

        return traced

    # -- counts at the layer boundaries ----------------------------------

    def _post_hooks(self):
        c = self.counts

        def vec_combine(args, kwargs, result, nested):
            coeffs, vecs = args[1], args[2]
            if getattr(vecs, "ndim", 1) == 2:
                c["field.mults"] += int(vecs.size)
            else:
                c["field.mults"] += len(coeffs) * len(vecs[0])

        def vec_scale(args, kwargs, result, nested):
            c["field.mults"] += len(args[2])

        def canonical_matrix(args, kwargs, result, nested):
            c["crs.canonical_columns"] += int(kwargs.get("k", args[1] if len(args) > 1 else 0))

        def recovery_plan(args, kwargs, result, nested):
            self._masks.add((self._repairs, tuple(bool(p) for p in args[1])))

        def prf_vector(args, kwargs, result, nested):
            c["auth.prf_chunks"] += int(kwargs.get("count", args[2] if len(args) > 2 else 0))

        def prf_vector_cached(args, kwargs, result, nested):
            if nested == 0:
                c["auth.prf_cache_hits"] += 1

        def verify_block(args, kwargs, result, nested):
            if result is False:
                c["auth.verify_block_rejects"] += 1

        def redistribute(args, kwargs, result, nested):
            self._repairs += 1

        def bytes_read(args, kwargs, result, nested):
            c["store.bytes_read"] += _file_size(args[0])

        def bytes_written(args, kwargs, result, nested):
            c["store.bytes_written"] += _file_size(args[1])

        return {
            "field.vec_combine": vec_combine,
            "field.vec_scale": vec_scale,
            "crs.canonical_matrix": canonical_matrix,
            "crs.recovery_plan": recovery_plan,
            "auth.prf_vector": prf_vector,
            "auth.prf_vector_cached": prf_vector_cached,
            "auth.verify_block": verify_block,
            "client.redistribute": redistribute,
            "store.read_share": bytes_read,
            "store.read_meta": bytes_read,
            "store.write_share": bytes_written,
            "store.write_meta": bytes_written,
        }

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = self._post_hooks()
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(f"porcrs.{module_name}")
            except ImportError:
                continue
            if attr.startswith("*."):
                method = attr[2:]
                owners = [
                    cls
                    for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__ and method in cls.__dict__
                ]
                for cls in owners:
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method], hooks.get(name)))
                if owners:
                    self.present.add(name)
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None or fn_name not in vars(owner):
                continue
            wrapped = self._wrap(name, original, hooks.get(name))
            self._patch(owner, fn_name, wrapped)
            if owner is module:
                # Names bound elsewhere by "from .module import fn".
                for mod_name, other in list(sys.modules.items()):
                    if other is None or other is module:
                        continue
                    if mod_name != "porcrs" and not mod_name.startswith("porcrs."):
                        continue
                    if vars(other).get(fn_name) is original:
                        self._patch(other, fn_name, wrapped)
            self.present.add(name)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.counts["py.gc_collections"] += 1

    # -- results ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.uint16),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            np.frombuffer(self.span_parent, dtype=np.int32),
        )

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_sum = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_sum[i])) for i, name in enumerate(self.names)
        }

    def distinct_masks(self) -> int:
        return len(self._masks)

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
        )
