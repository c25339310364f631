"""Experiment orchestration: spec files, batch runs, CSV telemetry.

Spec files are flat ``key = value`` text with ``#`` comments.  Unknown keys
are errors, not typos to guess around.  Example::

    objective = logistic
    topology  = ring
    m         = 20
    lambda    = 1e-4
    epsilon   = 1e-3
    data      = data/a9a
    dim       = 123
    seeds     = 0,1,2
    t_max     = 2000          # any RunConfig field; its range is checked on load

``dearest run spec.cfg`` builds the topology once and parses the data file
once (scaling its rows to unit norm with ``normalize``).  Then for every seed
it splits the data afresh, gathering each agent's rows straight into the
objective's stacked matrix, derives the guarantee-based hyperparameters (plus
any overrides), runs the optimizer, and writes ``telemetry_<seed>.csv`` and a
``summary.csv`` in the output directory.  ``dearest spectra`` prints mixing
spectra and ``dearest params`` prints derived hyperparameters.

The environment variable ``DEAREST_OUTPUT_DIR`` overrides ``output_dir``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics
from .datasets import SampleSet, normalize_rows, parse_libsvm, partition
# shard_matrices is not called here, but perfbench/spans.py wraps
# ``cli.shard_matrices`` by name when it traces a run, so the name stays bound.
from .datasets import shard_matrices  # noqa: F401
from .objectives import (
    FiniteSumObjective,
    LogisticNCObjective,
    make_quadratic,
    make_synthetic_logistic,
)
from .optimizer import _FIELDS, RunConfig, _check_field, derive_config, run, theorem_config
from .topology import (
    Graph,
    build_complete,
    build_random,
    build_ring,
    gossip_from_laplacian,
    laplacian,
    read_graph_file,
)

__all__ = ["ExperimentSpec", "SpecError", "load_spec", "run_experiment", "main"]

OUTPUT_DIR_ENV = "DEAREST_OUTPUT_DIR"

SUMMARY_HEADER = (
    "seed,n,final_grad_norm,ifo_total,comm_rounds,comm_rounds_all_calls,wall_time_s"
)


class SpecError(ValueError):
    """Malformed experiment spec: names the offending key and line."""


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce a batch of runs from one text file."""

    objective: str = ""
    topology: str = ""
    m: int = 0
    epsilon: float = 0.0
    data: Path | None = None
    dim: int | None = None
    graph_file: Path | None = None
    prob: float = 0.15
    topology_seed: int = 0
    data_seed: int = 0
    lambda_reg: float = 1e-4
    normalize: bool = False
    synthetic_samples: int = 512
    synthetic_dim: int = 20
    flip_fraction: float = 0.1
    n: int = 50
    d: int = 10
    seeds: tuple[int, ...] = (0,)
    output_dir: Path = Path("runs")
    telemetry_stride: int = 1
    overrides: dict[str, object] = field(default_factory=dict)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = _parse_int_list(text)
    for k, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"seed {seed} is negative")
        if seed in seeds[:k]:
            raise ValueError(f"seed {seed} is listed twice")
    return seeds


# A spec key's parser follows from its ExperimentSpec field's type; ``lambda``
# names ``lambda_reg``.  Every RunConfig field is an override key, parsed by
# its kind and checked by optimizer._check_field.
_TYPE_PARSERS: dict[str, Callable[[str], object]] = {
    "str": str, "int": int, "float": _parse_finite, "bool": _parse_bool, "Path": Path,
    "tuple[int, ...]": _parse_seeds,
}
_KIND_PARSERS = {"real": _parse_finite, "count": int, "seed": int, "seeds": _parse_int_list}
_SPEC_KEYS = {
    "lambda" if f.name == "lambda_reg" else f.name:
        (f.name, _TYPE_PARSERS[f.type.removesuffix(" | None")])
    for f in dataclasses.fields(ExperimentSpec) if f.name != "overrides"
}

_REQUIRED_KEYS = ("objective", "topology", "m", "epsilon")


def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate a ``key = value`` experiment spec file."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})") from None
    spec = ExperimentSpec()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in seen:
            raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in _SPEC_KEYS and key not in _FIELDS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _SPEC_KEYS:
                attr, parser = _SPEC_KEYS[key]
                setattr(spec, attr, parser(value))
            else:
                spec.overrides[key] = _check_field(key, _KIND_PARSERS[_FIELDS[key][0]](value))
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise SpecError(f"{path}: missing required keys: {', '.join(missing)}")
    _validate_spec(spec, path)
    return spec


def _validate_spec(spec: ExperimentSpec, path: Path) -> None:
    if spec.objective not in ("logistic", "quadratic"):
        raise SpecError(f"{path}: objective must be 'logistic' or 'quadratic', got {spec.objective!r}")
    if spec.topology not in ("ring", "random", "complete", "file"):
        raise SpecError(
            f"{path}: topology must be one of ring/random/complete/file, got {spec.topology!r}"
        )
    if spec.m < 2:
        raise SpecError(f"{path}: need at least 2 agents, got m={spec.m}")
    if spec.epsilon <= 0:
        raise SpecError(f"{path}: epsilon must be > 0, got {spec.epsilon}")
    if spec.topology == "file" and spec.graph_file is None:
        raise SpecError(f"{path}: topology=file requires graph_file")
    if spec.graph_file is not None and not spec.graph_file.exists():
        raise SpecError(f"{path}: graph_file {spec.graph_file} does not exist")
    if spec.data is not None and not spec.data.exists():
        raise SpecError(f"{path}: data file {spec.data} does not exist")
    if not spec.seeds:
        raise SpecError(f"{path}: seeds list is empty")
    if spec.telemetry_stride < 1:
        raise SpecError(f"{path}: telemetry_stride must be >= 1")
    seeds = spec.overrides.get("agent_seeds")
    if seeds is not None and len(seeds) != spec.m:
        raise SpecError(f"{path}: agent_seeds lists {len(seeds)} seeds for m={spec.m} agents")


def build_graph(spec: ExperimentSpec) -> Graph:
    if spec.topology == "ring":
        return build_ring(spec.m)
    if spec.topology == "complete":
        return build_complete(spec.m)
    if spec.topology == "random":
        return build_random(spec.m, spec.prob, spec.topology_seed)
    g = read_graph_file(spec.graph_file)
    if g.m != spec.m:
        raise SpecError(f"graph file has {g.m} agents but the spec says m={spec.m}")
    return g


def load_samples(spec: ExperimentSpec) -> SampleSet:
    """The spec's LIBSVM file, parsed, with unit-norm rows when ``normalize`` is set."""
    samples = parse_libsvm(spec.data, spec.dim)
    return normalize_rows(samples) if spec.normalize else samples


def build_objective(spec: ExperimentSpec, seed: int, samples=None) -> FiniteSumObjective:
    """Objective for one run; the uniform data split is redrawn per seed.

    ``samples`` lets callers reuse ``load_samples(spec)`` across seeds.  The
    objective gathers its agents' rows straight from it into its stacked
    matrix, so no per-agent copies are made.
    """
    if spec.objective == "quadratic":
        return make_quadratic(spec.m, spec.n, spec.d, spec.data_seed)
    if spec.data is not None:
        if samples is None:
            samples = load_samples(spec)
        part = partition(samples, spec.m, seed)
        return LogisticNCObjective.from_rows(samples.features, samples.labels, part.shards,
                                             spec.lambda_reg)
    return make_synthetic_logistic(
        spec.m,
        spec.synthetic_samples // spec.m,
        spec.synthetic_dim,
        spec.lambda_reg,
        spec.data_seed,
        flip_fraction=spec.flip_fraction,
    )


def _configure(spec: ExperimentSpec, obj: FiniteSumObjective, w, seed: int) -> RunConfig:
    cfg = derive_config(obj, w, spec.epsilon, np.zeros(obj.d), seed=seed)
    return dataclasses.replace(cfg, **spec.overrides)


def _run_seed(spec: ExperimentSpec, w, seed: int, samples) -> tuple[str, list[metrics.TelemetryRecord]]:
    """One seed's summary row and telemetry.

    The objective and the run's iterate history are freed on return, so
    the next seed does not build its data while this seed's is still held.
    """
    obj = build_objective(spec, seed, samples)
    cfg = _configure(spec, obj, w, seed)
    started = time.perf_counter()
    result = run(obj, w, cfg, np.zeros(obj.d), telemetry_stride=spec.telemetry_stride)
    wall = time.perf_counter() - started
    final_grad = float(np.linalg.norm(obj.global_grad(result.x_out)))
    fs = result.final_state
    summary_row = (
        f"{seed},{obj.n},{final_grad!r},{fs.ifo_count},"
        f"{fs.comm_rounds},{fs.comm_rounds_all_calls},{wall:.3f}"
    )
    return summary_row, result.telemetry


def run_experiment(spec: ExperimentSpec) -> int:
    """Run every seed of the spec; write telemetry_<seed>.csv and summary.csv.

    Returns 0 on success.  Output files are only written after their run
    completes, so a failure leaves no partial CSV behind.
    """
    graph = build_graph(spec)
    w = gossip_from_laplacian(laplacian(graph))
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, str(spec.output_dir)))
    samples = None
    if spec.objective == "logistic" and spec.data is not None:
        samples = load_samples(spec)
    summary_rows = []
    run_outputs = []
    for seed in spec.seeds:
        summary_row, telemetry = _run_seed(spec, w, seed, samples)
        summary_rows.append(summary_row)
        run_outputs.append((seed, telemetry))
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed, telemetry in run_outputs:
        rows = [metrics.CSV_HEADER] + [metrics.format_csv_row(r) for r in telemetry]
        (out_dir / f"telemetry_{seed}.csv").write_text("\n".join(rows) + "\n")
    (out_dir / "summary.csv").write_text(
        "\n".join([SUMMARY_HEADER] + summary_rows) + "\n"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return run_experiment(load_spec(args.spec))


def _cmd_spectra(args: argparse.Namespace) -> int:
    if args.kind == "file":
        g = read_graph_file(args.arg)
    else:
        g = build_graph(ExperimentSpec(topology=args.kind, m=int(args.arg), prob=args.prob,
                                       topology_seed=args.seed))
    w = gossip_from_laplacian(laplacian(g))
    print(f"m = {g.m}")
    print(f"edges = {g.n_edges}")
    print(f"lambda2 = {w.lambda2:.12g}")
    print(f"gap = {w.gap:.12g}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    cfg = theorem_config(
        args.m, args.n, args.smoothness, args.lambda2, args.epsilon,
        args.delta0, args.g0_norm_sq,
    )
    for name, (kind, *_) in _FIELDS.items():
        value = getattr(cfg, name)
        if kind in ("real", "count"):
            print(f"{name} = {value:.12g}" if kind == "real" else f"{name} = {value}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dearest",
        description="Decentralized finite-sum optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", type=Path, help="path to a key = value spec file")
    p_run.set_defaults(func=_cmd_run)

    p_spec = sub.add_parser("spectra", help="print lambda2 and spectral gap of a topology")
    p_spec.add_argument("kind", choices=["ring", "random", "complete", "file"])
    p_spec.add_argument("arg", help="agent count (ring/random/complete) or graph file path")
    p_spec.add_argument("--prob", type=float, default=0.15, help="edge probability for random")
    p_spec.add_argument("--seed", type=int, default=0, help="seed for random topology")
    p_spec.set_defaults(func=_cmd_spectra)

    p_par = sub.add_parser("params", help="print guarantee-derived hyperparameters")
    p_par.add_argument("m", type=int)
    p_par.add_argument("n", type=int)
    p_par.add_argument("smoothness", type=float)
    p_par.add_argument("lambda2", type=float)
    p_par.add_argument("epsilon", type=float)
    p_par.add_argument("--delta0", type=float, default=1.0, help="bound on f(x0) - f*")
    p_par.add_argument("--g0-norm-sq", type=float, default=0.0, dest="g0_norm_sq",
                       help="consensus norm^2 of the initial gradients (sets k_in)")
    p_par.set_defaults(func=_cmd_params)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
