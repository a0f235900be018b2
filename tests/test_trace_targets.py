"""Every name the benchmark's tracer wraps still exists in the program.

Several per-layer metrics are fed by more than one span, so a renamed or
deleted function can leave a metric present but silently smaller; this
check fails on the first name that no longer resolves.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        present = set(tracer.present)
    finally:
        tracer.remove()
    names = {name for name, _, _ in spans.TARGETS}
    assert len(names) == 23
    assert sorted(names - present) == []
