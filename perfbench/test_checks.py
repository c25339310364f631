"""The benchmark's output checks pass on real runs and fail on wrong ones.

Run from the repository root: ``python3 -m pytest perfbench -q``.  Each
wrong result is made by wrapping the program from outside: a counter off
by one step's cost, a one-round ``fastmix``, a perturbed iterate, a wrong
telemetry row.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from dearest import cli, optimizer  # noqa: E402


@pytest.fixture(scope="module")
def quad():
    return workloads.Ring100Quad(seed=11, workdir=HERE)


@pytest.fixture(scope="module")
def quad_result(quad):
    """One correct run of the ring100-quad instance: it passes every check."""
    captured = {}
    original = optimizer.run

    def keep(obj, w, cfg, *args, **kwargs):
        captured["cfg"] = cfg
        captured["res"] = original(obj, w, cfg, *args, **kwargs)
        return captured["res"]

    optimizer.run = keep
    try:
        stats = quad.round()
    finally:
        optimizer.run = original
    assert stats.failures == [] and stats.failed_runs == 0
    return captured["res"], captured["cfg"]


def _wrap_run(monkeypatch, alter):
    original = optimizer.run

    def wrong_run(obj, w, cfg, *args, **kwargs):
        res = original(obj, w, cfg, *args, **kwargs)
        return dataclasses.replace(res, final_state=alter(res.final_state, obj, cfg))

    monkeypatch.setattr(optimizer, "run", wrong_run)


def test_counter_off_by_one_step(quad, monkeypatch):
    _wrap_run(monkeypatch, lambda fs, obj, cfg: dataclasses.replace(
        fs, ifo_count=fs.ifo_count + obj.m * cfg.b))
    failures = quad.round().failures
    assert any("ifo_count" in f for f in failures), failures


def test_comm_rounds_off_by_one_step(quad, monkeypatch):
    _wrap_run(monkeypatch, lambda fs, obj, cfg: dataclasses.replace(
        fs, comm_rounds=fs.comm_rounds + cfg.hat_k))
    failures = quad.round().failures
    assert any("comm_rounds" in f for f in failures), failures


def test_one_round_fastmix(monkeypatch):
    a9a = workloads.A9aRing20(seed=2, workdir=HERE)
    assert a9a.round().failures == []
    original = optimizer.fastmix
    monkeypatch.setattr(optimizer, "fastmix", lambda u, w, k: original(u, w, min(k, 1)))
    failures = a9a.round().failures
    assert any("consensus" in f for f in failures), failures


def test_perturbed_iterate(quad, monkeypatch):
    rng = np.random.default_rng(0)
    _wrap_run(monkeypatch, lambda fs, obj, cfg: dataclasses.replace(
        fs, x=fs.x + 1e-3 * rng.standard_normal(fs.x.shape)))
    failures = quad.round().failures
    assert any("gradient norm" in f for f in failures), failures
    assert any("minimizer" in f for f in failures), failures


def test_tracker_mean(quad, monkeypatch):
    _wrap_run(monkeypatch, lambda fs, obj, cfg: dataclasses.replace(fs, s=fs.s + 1e-6))
    failures = quad.round().failures
    assert any("tracker mean" in f for f in failures), failures


def test_config(quad, quad_result):
    _, cfg = quad_result
    assert checks.check_config(cfg, quad.lambda2, quad.lambda2, quad.m, quad.n, None) == []
    assert checks.check_config(cfg, quad.lambda2 + 1e-6, quad.lambda2, quad.m, quad.n, None)
    assert checks.check_config(dataclasses.replace(cfg, b=cfg.b + 1), quad.lambda2,
                               quad.lambda2, quad.m, quad.n, None)
    assert checks.check_config(cfg, quad.lambda2, quad.lambda2, quad.m, quad.n, 1.0)


def test_first_row(quad_result):
    res, _ = quad_result
    rec = res.telemetry[0]
    assert checks.check_first_row(rec, rec.f_bar, rec.grad_norm) == []
    assert checks.check_first_row(rec, rec.f_bar * (1 + 1e-6), rec.grad_norm)
    assert checks.check_first_row(rec, rec.f_bar, rec.grad_norm * (1 + 1e-6))


class ShortCli(workloads.CliTelemetry):
    t_max = 20
    grad_fraction = 1.0


@pytest.fixture(scope="module")
def short_cli(tmp_path_factory):
    return ShortCli(seed=5, workdir=tmp_path_factory.mktemp("cli"))


def test_cli_run_passes(short_cli):
    stats = short_cli.round()
    assert stats.failures == [] and stats.failed_runs == 0


def _rewrite_csv(monkeypatch, workload, column, change):
    original = cli.main

    def wrong_main(argv):
        code = original(argv)
        path = workload.out_dir / f"telemetry_{workload.seeds[0]}.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = change(cells[column])
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(cli, "main", wrong_main)


@pytest.mark.parametrize("column, change, message", [
    (9, lambda v: str(int(v) + 4 * 271), "ifo_cum"),
    (10, lambda v: str(int(v) + 1), "comm_cum"),
    (8, lambda v: repr(float(v) * (1 + 1e-6)), "phi_t"),
    (2, lambda v: str(int(v) + 1), "k_t"),
])
def test_cli_wrong_row(short_cli, monkeypatch, column, change, message):
    _rewrite_csv(monkeypatch, short_cli, column, change)
    stats = short_cli.round()
    assert stats.failed_runs == 1, stats.failures
    assert any(message in f for f in stats.failures), stats.failures


def test_cli_first_row_and_length(short_cli):
    short_cli.round()
    path = short_cli.out_dir / f"telemetry_{short_cli.seeds[0]}.csv"
    summary = {"n": short_cli.n, "ifo_total": 0, "comm_rounds": 0, "comm_rounds_all_calls": 0}
    args = (short_cli.m, short_cli.n)
    rest = (short_cli.smoothness, short_cli.g0, 1.0)
    assert checks.check_cli_run(path, summary, *args, short_cli.t_max + 1, *rest)
    wrong_g0 = checks.check_cli_run(path, summary, *args, short_cli.t_max,
                                    short_cli.smoothness, short_cli.g0 * 1.01, 1.0)
    assert any("grad_norm at t = 0" in f for f in wrong_g0), wrong_g0
    assert any("summary ifo_total" in f for f in wrong_g0), wrong_g0
