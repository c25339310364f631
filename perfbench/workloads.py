"""The benchmark's workloads: seeded inputs and one timed round each.

A round is the unit the benchmark repeats: the set-up the program does
before its optimizer iterations, the iterations themselves, and the output
checks.  Inputs are generated once per process from the seed and are not
timed.  Every call into the program goes through a module attribute
(``topology.build_ring``, ``optimizer.run``, ``cli.main``) so that the
tracer in ``spans.py`` sees it when it is installed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from dearest import cli, objectives, optimizer, topology
from dearest.optimizer import DivergenceError

import checks

# C8's dataset-scale instance (tests/test_acceptance.py::_a9a_like_objective):
# 32,560 rows, d = 123, 14 distinct unit features per row, 10% label flips.
# Keep these constants and `a9a_like_rows` in step with that recipe.
A9A_ROWS, A9A_DIM, A9A_NNZ, A9A_FLIP = 32560, 123, 14, 0.1
LAMBDA = 1e-4
EPSILON = 1e-3


@dataclass
class RoundStats:
    """What one round did: times, work, and the checks that failed."""

    setup_s: float
    solve_s: float
    iters: int
    runs: int
    ifo: int
    comm_rounds: int
    failures: list[str] = field(default_factory=list)
    failed_runs: int = 0


def a9a_like_rows(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (rows x 14) and +-1 labels of the a9a-shaped data.

    Same draws, in the same order, as C8's synthetic stand-in for a9a.
    """
    teacher = rng.standard_normal(A9A_DIM)
    labels = np.empty(A9A_ROWS)
    cols = np.empty((A9A_ROWS, A9A_NNZ), dtype=np.int64)
    for j in range(A9A_ROWS):
        idx = rng.choice(A9A_DIM, size=A9A_NNZ, replace=False)
        idx.sort()
        cols[j] = idx
        labels[j] = 1.0 if teacher[idx].sum() >= 0.0 else -1.0
    flips = rng.random(A9A_ROWS) < A9A_FLIP
    labels[flips] = -labels[flips]
    return cols, labels


class LibraryWorkload:
    """A workload that calls the library: ring, gossip, objective, derive_config, run.

    Subclasses set the instance (``m``, ``n``, ``d``, ``t_max``, ``stride``,
    ``seed``, ``g0``, ``grad``, ``lambda2``, ``smoothness``) and provide
    ``objective()`` and ``extra_checks()``.
    """

    def objective(self):
        raise NotImplementedError

    def extra_checks(self, res, x_bar: np.ndarray) -> list[str]:
        raise NotImplementedError

    def round(self) -> RoundStats:
        x0 = np.zeros(self.d)
        started = time.perf_counter()
        w = topology.gossip_from_laplacian(topology.laplacian(topology.build_ring(self.m)))
        obj = self.objective()
        cfg = dataclasses.replace(
            optimizer.derive_config(obj, w, EPSILON, x0, seed=self.seed), t_max=self.t_max
        )
        setup = time.perf_counter() - started
        try:
            res = optimizer.run(obj, w, cfg, x0, telemetry_stride=self.stride)
        except DivergenceError as exc:
            return RoundStats(setup, 0.0, 0, 1, 0, 0, [f"run diverged: {exc}"], 1)
        solve = time.perf_counter() - started - setup
        fs = res.final_state
        x_bar = fs.x.mean(axis=0)
        failures = (
            checks.check_config(cfg, w.lambda2, self.lambda2, self.m, self.n, self.smoothness)
            + checks.check_counters(
                checks.replay_counters(cfg, self.m, self.n),
                (fs.ifo_count, fs.comm_rounds, fs.comm_rounds_all_calls))
            + checks.check_tracker_mean(fs.s, fs.g)
            + checks.check_grad_fraction(self.grad(x_bar), self.g0, self.grad_fraction)
            + checks.check_consensus(fs.x)
            + self.extra_checks(res, x_bar)
        )
        return RoundStats(setup, solve, self.t_max, 1, fs.ifo_count, fs.comm_rounds,
                          failures, int(bool(failures)))


class A9aRing20(LibraryWorkload):
    """C8's a9a-shaped logistic instance on the 20-ring, derived parameters.

    Each cheap step gathers b = 55 rows per agent for a paired gradient
    difference, so the mini-batch oracle does most of the work.
    """

    name = "a9a-ring20"
    m, d = 20, A9A_DIM
    t_max = 200
    stride = 100
    grad_fraction = 0.7

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        cols, labels = a9a_like_rows(np.random.default_rng(seed))
        self.n = A9A_ROWS // self.m
        full = sp.csr_matrix(
            (np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, A9A_NNZ)),
            shape=(A9A_ROWS, A9A_DIM),
        )
        self.feats = [full[i * self.n:(i + 1) * self.n] for i in range(self.m)]
        self.labs = [labels[i * self.n:(i + 1) * self.n] for i in range(self.m)]
        self.grad = checks.LogisticGrad(cols, labels, LAMBDA, A9A_DIM)
        self.g0 = float(np.linalg.norm(self.grad(np.zeros(A9A_DIM))))
        self.lambda2 = checks.ring_lambda2(self.m)
        self.smoothness = checks.logistic_smoothness(A9A_NNZ, LAMBDA)

    def objective(self):
        return objectives.LogisticNCObjective(self.feats, self.labs, LAMBDA)

    def extra_checks(self, res, x_bar: np.ndarray) -> list[str]:
        return checks.check_first_row(res.telemetry[0], math.log(2.0), self.g0)


class Ring100Quad(LibraryWorkload):
    """Least squares on the 100-ring: gap 9.9e-4, so every step mixes K_t = 192 rounds.

    The local problems are small, so gossip does most of the work, and the
    spectrum of the 100 x 100 Laplacian does most of the set-up.
    """

    name = "ring100-quad"
    m, n, d = 100, 32, 20
    t_max = 100
    stride = 50
    dist_fraction = 1e-4
    grad_fraction = 1e-4
    smoothness = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        # The recipe of dearest.objectives.make_quadratic, drawn here so that
        # generating the data stays out of the timed set-up.
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((self.m, self.n, self.d, self.d)) / np.sqrt(self.d)
        self.c = rng.standard_normal((self.m, self.n, self.d))
        self.grad = checks.QuadraticGrad(self.a, self.c)
        self.x_star = self.grad.minimizer()
        self.g0 = float(np.linalg.norm(self.grad(np.zeros(self.d))))
        self.lambda2 = checks.ring_lambda2(self.m)

    def objective(self):
        return objectives.QuadraticObjective(self.a, self.c)

    def extra_checks(self, res, x_bar: np.ndarray) -> list[str]:
        return checks.check_distance(x_bar, self.x_star, self.dist_fraction)


class CliTelemetry:
    """``dearest run`` on an a9a-shaped LIBSVM file, a telemetry row every step.

    Four agents hold 8,140 rows each, so each telemetry row's full passes
    over the data cost more than the mini-batch step it describes; parsing
    the file is most of the set-up.
    """

    name = "cli-telemetry"
    m, d = 4, A9A_DIM
    t_max = 150
    n_seeds = 2
    grad_fraction = 0.8

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = tuple(seed + k for k in range(self.n_seeds))
        cols, labels = a9a_like_rows(np.random.default_rng(seed))
        self.n = cols.shape[0] // self.m
        self.data = workdir / "a9a_like.libsvm"
        self.out_dir = workdir / "out"
        with self.data.open("w") as fh:
            for row, label in zip(cols + 1, labels):
                fh.write(("+1" if label > 0 else "-1") + "".join(f" {k}:1" for k in row) + "\n")
        self.spec = workdir / "experiment.cfg"
        self.spec.write_text(
            "objective = logistic\n"
            "topology = ring\n"
            f"m = {self.m}\n"
            f"epsilon = {EPSILON!r}\n"
            f"lambda = {LAMBDA!r}\n"
            f"data = {self.data}\n"
            f"dim = {A9A_DIM}\n"
            f"seeds = {','.join(map(str, self.seeds))}\n"
            f"output_dir = {self.out_dir}\n"
            "telemetry_stride = 1\n"
            f"t_max = {self.t_max}\n"
        )
        grad = checks.LogisticGrad(cols, labels, LAMBDA, A9A_DIM)
        self.g0 = float(np.linalg.norm(grad(np.zeros(A9A_DIM))))
        self.smoothness = checks.logistic_smoothness(A9A_NNZ, LAMBDA)

    def round(self) -> RoundStats:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        started = time.perf_counter()
        code = cli.main(["run", str(self.spec)])
        total = time.perf_counter() - started
        runs = len(self.seeds)
        if code != 0:
            return RoundStats(total, 0.0, 0, runs, 0, 0, [f"dearest run exited {code}"], runs)
        with (self.out_dir / "summary.csv").open() as fh:
            summary = {int(row["seed"]): row for row in csv.DictReader(fh)}
        solve = sum(float(row["wall_time_s"]) for row in summary.values())
        failures: list[str] = []
        failed_runs = ifo = comm = 0
        for seed in self.seeds:
            found = checks.check_cli_run(
                self.out_dir / f"telemetry_{seed}.csv", summary.get(seed), self.m, self.n,
                self.t_max, self.smoothness, self.g0, self.grad_fraction,
            )
            failures += [f"seed {seed}: {f}" for f in found]
            failed_runs += bool(found)
            if seed in summary:
                ifo += int(summary[seed]["ifo_total"])
                comm += int(summary[seed]["comm_rounds"])
        return RoundStats(total - solve, solve, self.t_max * runs, runs, ifo, comm,
                          failures, failed_runs)


WORKLOADS = {wl.name: wl for wl in (A9aRing20, Ring100Quad, CliTelemetry)}
