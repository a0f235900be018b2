"""Simulation harness: determinism, adversaries, evasion rates, costs."""

import builtins
import errno
import math
import os
import random

import pytest

from porcrs import harness
from porcrs.errors import ParameterError
from porcrs.harness import (
    AppendCost,
    HarnessConfig,
    account_append_cost,
    estimate_pcheat,
    exact_pass_rate,
    power_approx_pass_rate,
    read_config,
    run,
    write_report,
)


def test_run_is_deterministic():
    cfg = HarnessConfig(adversary="tamper", budget=1, epochs=4, seed=77)
    a, b = run(cfg), run(cfg)
    assert [e.verdicts for e in a.epochs] == [e.verdicts for e in b.epochs]
    assert [e.corrupted for e in a.epochs] == [e.corrupted for e in b.epochs]
    assert [e.append_bytes for e in a.epochs] == [e.append_bytes for e in b.epochs]
    assert a.failures_total == b.failures_total
    assert a.recoveries == b.recoveries


def test_null_adversary_all_audits_pass():
    cfg = HarnessConfig(epochs=5, appends_per_epoch=2, audits_per_epoch=3, seed=3)
    report = run(cfg)
    assert report.failures_total == 0
    assert report.recoveries == 0 and report.unavailable == 0
    assert report.audits_total == 5 * 3 * cfg.n


def test_wipe_within_dispersal_bound_recovers():
    # b = s = n - k wiped servers: every row still has k survivors.
    cfg = HarnessConfig(
        n=5, k=3, stilde0=2, adversary="wipe", budget=2,
        epochs=3, audits_per_epoch=4, seed=11,
    )
    report = run(cfg)
    assert report.recoveries >= 1
    assert report.unavailable == 0
    # post-recovery epochs start clean: the last epoch has no failures
    # unless the adversary struck again (it does, every epoch), so instead
    # check that every recovery epoch ends with a usable system.
    assert report.failures_total > 0


def test_rollback_failure_rate_matches_hypergeometric():
    cfg = HarnessConfig(
        n=4, k=2, stilde0=3, file_rows=4,
        adversary="rollback", budget=1,
        epochs=1, appends_per_epoch=1, audits_per_epoch=10_000,
        challenge_size=3, window=20_000, eps_q=0.99, seed=5,
    )
    report = run(cfg)
    stats = report.epochs[0]
    victim = stats.corrupted[0]
    fails = sum(1 for verdicts in stats.verdicts if not verdicts[victim - 1])
    # k appends happened before corruption: ktilde = 5, r = 8, l = 3
    ktilde, r, l = 5, 8, 3
    expected = 1 - math.comb(ktilde, l) / math.comb(r, l)
    assert abs(fails / 10_000 - expected) < 0.02
    # all other servers never fail
    for j in range(1, 5):
        if j == victim:
            continue
        assert all(verdicts[j - 1] for verdicts in stats.verdicts)


def test_rollback_with_no_budget_changes_nothing():
    report = run(HarnessConfig(adversary="rollback", budget=0, epochs=2, seed=1))
    assert [stats.corrupted for stats in report.epochs] == [[], []]
    assert report.failures_total == 0 and report.cheat_audits == 0


def test_tamper_with_no_fraction_changes_nothing():
    report = run(
        HarnessConfig(adversary="tamper", budget=1, corrupt_fraction=0.0, epochs=2, seed=1)
    )
    assert [stats.corrupted for stats in report.epochs] == [[], []]
    assert report.failures_total == 0 and report.cheat_audits == 0


def test_estimate_pcheat_trivial_cases():
    assert estimate_pcheat(10, 2, 0, 1000) == 1.0
    assert estimate_pcheat(10, 0, 5, 1000) == 1.0
    assert exact_pass_rate(10, 2, 0) == 1.0
    assert exact_pass_rate(10, 0, 5) == 1.0
    assert exact_pass_rate(10, 2, 9) == 0.0  # cannot avoid deletions
    with pytest.raises(ParameterError):
        estimate_pcheat(10, 11, 1, 10)
    with pytest.raises(ParameterError):
        estimate_pcheat(10, 1, 11, 10)


def test_estimate_pcheat_matches_exact_product():
    rate = estimate_pcheat(10, 2, 5, 100_000, seed=1)
    exact = exact_pass_rate(10, 2, 5)
    assert abs(exact - 0.2222) < 5e-4  # the frozen oracle value
    assert abs(rate - exact) < 0.01
    assert abs(power_approx_pass_rate(10, 2, 5) - 0.328) < 1e-3


def test_detection_bound_other_shape():
    r, stilde, l = 20, 5, 4
    exact = math.comb(r - stilde, l) / math.comb(r, l)
    rate = estimate_pcheat(r, stilde, l, 50_000, seed=2)
    assert abs(rate - exact) < 0.01


def test_append_cost_independent_of_ktilde():
    cfg = HarnessConfig(n=5, k=3, stilde0=2, file_rows=3, seed=4)
    cost = account_append_cost(cfg)
    assert cost.independent_of_ktilde
    assert cost.bytes_small == 5 * (2 + 2) * 1 * 8
    assert cost.server_mults_small == 5 * 2 * 1  # stilde scales of c chunks


def test_append_cost_scales_with_stilde_and_chunks():
    base = account_append_cost(HarnessConfig(n=5, k=3, stilde0=2, seed=5))
    wide = account_append_cost(HarnessConfig(n=5, k=3, stilde0=4, seed=5))
    esz = 8
    base_delta = base.bytes_small - 5 * 2 * 1 * esz
    wide_delta = wide.bytes_small - 5 * 2 * 1 * esz
    assert wide_delta == 2 * base_delta
    assert wide.server_mults_small == 2 * base.server_mults_small
    b16 = HarnessConfig(
        field_token="gf2:16", n=5, k=3, stilde0=2, block_size=32, seed=6
    )
    b32 = HarnessConfig(
        field_token="gf2:16", n=5, k=3, stilde0=2, block_size=64, seed=6
    )
    cost16, cost32 = account_append_cost(b16), account_append_cost(b32)
    assert cost32.bytes_small == 2 * cost16.bytes_small
    assert cost32.server_mults_small == 2 * cost16.server_mults_small


def test_binary_profile_campaign():
    cfg = HarnessConfig(
        field_token="gf2:16", block_size=32, n=5, k=3, stilde0=2,
        adversary="tamper", budget=1, corrupt_fraction=0.4,
        epochs=3, audits_per_epoch=3, challenge_size=4, seed=9,
    )
    report = run(cfg)
    assert report.audits_total == 3 * 3 * 5
    assert report.failures_total > 0  # tampering is eventually challenged


def test_cheat_pass_rate_accounting():
    cfg = HarnessConfig(
        n=5, k=3, stilde0=2, adversary="wipe", budget=1,
        epochs=2, audits_per_epoch=5, challenge_size=2, seed=10,
    )
    report = run(cfg)
    assert report.cheat_audits > 0
    assert report.cheat_pass_rate == 0.0  # wiped servers cannot answer
    null = run(HarnessConfig(seed=1))
    assert null.cheat_pass_rate is None


def test_unknown_adversary_rejected():
    with pytest.raises(ParameterError):
        run(HarnessConfig(adversary="gremlin"))
    with pytest.raises(ParameterError):
        run(HarnessConfig(adversary="wipe", budget=99))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_text(
        "# comment\n"
        "adversary=wipe\n"
        "budget=2\n"
        "epochs=4\n"
        "corrupt_fraction=0.25\n"
        "field_token=gf2:16\n"
        "block_size=32\n"
    )
    cfg = read_config(path)
    assert cfg.adversary == "wipe" and cfg.budget == 2 and cfg.epochs == 4
    assert cfg.corrupt_fraction == 0.25
    assert cfg.field_token == "gf2:16"
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_knob=1\n")
    with pytest.raises(ParameterError):
        read_config(bad)


def test_read_config_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "twice.conf"
    path.write_text("seed=1\nseed=2\n")
    with pytest.raises(ParameterError, match="config line 2: duplicate key 'seed'"):
        read_config(path)


def test_read_config_skips_comments_and_takes_keys_verbatim(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_text("  # budget first\n\nbudget=2\n   # then the seed\nseed=9\n")
    cfg = read_config(path)
    assert (cfg.budget, cfg.seed) == (2, 9)
    path.write_text("seed=1\nbudget = 2\n")
    with pytest.raises(ParameterError, match="config line 2: unknown key 'budget '"):
        read_config(path)
    path.write_text("seed=1\n\nepochs=three\n")
    with pytest.raises(ParameterError, match="config line 3: bad value for epochs"):
        read_config(path)


def test_read_config_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_bytes(b"seed=1\nadversary=\xe9\n")
    with pytest.raises(ParameterError, match="config line 2: line is not UTF-8 text"):
        read_config(path)


def test_report_files(tmp_path):
    report = run(HarnessConfig(adversary="tamper", budget=1, epochs=2, seed=12))
    text, table = tmp_path / "report.txt", tmp_path / "report.tsv"
    write_report(report, text, table)
    body = text.read_text()
    assert "audits_total=" in body and "cheat_pass_rate=" in body
    rows = table.read_text().splitlines()
    assert rows[0] == "epoch\taudit\tserver\tverdict\tcorrupted"
    assert len(rows) == 1 + report.audits_total


def test_failed_table_write_leaves_neither_report_file(tmp_path, monkeypatch):
    report = run(HarnessConfig(adversary="tamper", budget=1, epochs=2, seed=12))
    text, table = tmp_path / "report.txt", tmp_path / "report.tsv"
    real_open = builtins.open

    def open_full(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(file).startswith(table.name):
            fh.close()
            raise OSError(errno.ENOSPC, "No space left on device")
        return fh

    monkeypatch.setattr(builtins, "open", open_full)
    with pytest.raises(OSError):
        write_report(report, text, table)
    monkeypatch.setattr(builtins, "open", real_open)
    assert list(tmp_path.iterdir()) == []
