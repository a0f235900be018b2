"""The benchmark command, run on its smallest workload once per trace mode,
traced on archive-gf2, and once on log-zp.

The benchmark's result is the last line of its standard output; a run whose
last line is not a strict JSON result (no NaN or Infinity) counts as no
result at all.  depot-zp covers the command-line path and the traced repair
checks in a few seconds; the traced archive-gf2 run takes about 20 s.
log-zp is the one workload that holds a tall column in memory (2x10^4 rows
on each of 15 servers); its untraced run takes under 10 s.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _check_result(workload, trace):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    # The tracer finds functions by name and skips a missing one, so a
    # renamed or deleted layer function shows here as a missing metric.
    wanted = {metric["name"] for metric in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert wanted
    assert wanted <= set(result["metrics"]), sorted(wanted - set(result["metrics"]))


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_ends_with_a_correct_result(trace):
    _check_result("depot-zp", trace)


def test_traced_archive_gf2_ends_with_a_correct_result():
    _check_result("archive-gf2", 1)


def test_log_zp_ends_with_a_correct_result():
    _check_result("log-zp", 0)
