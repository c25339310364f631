"""Benchmark of the dearest simulator: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload a9a-ring20 --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; then whole rounds (set-up,
optimizer iterations, output checks) repeat until ``--seconds`` have passed,
two rounds at least.  The first round warms up: its outputs are checked, but
its times are not reported.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (optimizer runs) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Exits 0 when every run passed its checks, 1 when one did not,
and 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine this was tuned on has two cores, and the
# matrices are too small for threads to pay off.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI workload writes its CSVs inside the benchmark's work directory.
os.environ.pop("DEAREST_OUTPUT_DIR", None)

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "work"


def _import_program() -> None:
    """Put the checkout's src/ first on the path; exit 2 if dearest is not there."""
    if not (SRC / "dearest" / "__init__.py").is_file():
        print(f"error: no dearest package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dearest

    if Path(dearest.__file__).resolve().parent != SRC / "dearest":
        print(f"error: imported dearest from {dearest.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _median(values):
    """Median, or None (JSON null) when every round failed."""
    return statistics.median(values) if values else None


def _quartile(values, which: int):
    """First (which=0) or third (which=2) quartile, None when every round failed.

    Other tenants of the shared host slow this machine in bursts, so a run's
    rounds mix a steady loaded speed with brief fast spells.  The quartile on
    the slow side follows the loaded speed; the median moves with the share
    of fast spells, which changes from minute to minute (README).
    """
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=4)[which]


def layer_metrics(summary: dict, workload, stats) -> dict[str, float]:
    """Per-layer figures of one traced round (see README for what each should move).

    Every fastmix call of a workload mixes an (m, d) matrix, so its flop
    count is 2 m^2 d times the summed round count.
    """

    def get(name: str, key: str = "s") -> float:
        return summary[name][key] if name in summary else 0

    run_s = get("optimizer.run")
    fastmix_s = get("mixing.fastmix")
    return {
        "topology.graph_s": get("topology.graph"),
        "topology.gossip_s": get("topology.gossip"),
        "mixing.fastmix_calls": get("mixing.fastmix", "calls"),
        "mixing.fastmix_rounds": get("mixing.fastmix", "work"),
        "mixing.fastmix_s": fastmix_s,
        "mixing.gflop_per_s": (2e-9 * workload.m**2 * workload.d
                               * get("mixing.fastmix", "work") / fastmix_s) if fastmix_s else 0.0,
        "objectives.batch_calls": get("objectives.batch", "calls"),
        "objectives.batch_rows": get("objectives.batch", "work"),
        "objectives.batch_s": get("objectives.batch"),
        "objectives.full_calls": get("objectives.full", "calls"),
        "objectives.full_s": get("objectives.full"),
        "optimizer.steps": get("optimizer.step", "calls"),
        "optimizer.refresh_steps": get("optimizer.step", "work"),
        "optimizer.step_self_s": get("optimizer.step", "self_s"),
        "optimizer.estimator_self_s": get("optimizer.estimator", "self_s"),
        "optimizer.history_s": get("optimizer.history"),
        "optimizer.init_s": get("optimizer.init"),
        "optimizer.derive_config_s": get("optimizer.derive_config"),
        "optimizer.ifo": stats.ifo,
        "optimizer.comm_rounds": stats.comm_rounds,
        "metrics.rows": get("metrics.record", "calls"),
        "metrics.record_s": get("metrics.record"),
        "metrics.record_self_s": get("metrics.record", "self_s"),
        "datasets.parse_s": get("datasets.parse"),
        "datasets.parse_lines": get("datasets.parse", "work"),
        "datasets.shard_s": get("datasets.shard"),
        "cli.self_s": get("cli.run_experiment", "self_s"),
        "trace.solve_s": run_s,
        "share.batch": get("objectives.batch") / run_s if run_s else 0.0,
        "share.mixing": fastmix_s / run_s if run_s else 0.0,
        "share.record": get("metrics.record") / run_s if run_s else 0.0,
    }


UNITS = {"setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB",
         "mixing.gflop_per_s": "GFLOP/s"}
COUNTS = {"mixing.fastmix_calls", "mixing.fastmix_rounds", "objectives.batch_calls",
          "objectives.batch_rows", "objectives.full_calls", "optimizer.steps",
          "optimizer.refresh_steps", "optimizer.ifo", "optimizer.comm_rounds",
          "metrics.rows", "datasets.parse_lines"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in COUNTS:
        return "count"
    return "fraction" if name.startswith("share.") else "s"


def measure(workload, seconds: float, trace: bool) -> dict:
    from spans import Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(workload.round())
        if trace:
            tracer.install()
            try:
                stats = workload.round()
            finally:
                tracer.restore()
            traced.append(stats)
            layers.append(layer_metrics(tracer.summary(), workload, stats))
            tracer.reset()
        if time.perf_counter() >= deadline and len(plain) > 1:
            break
    rounds = plain + traced
    for stats in rounds:
        for failure in stats.failures:
            print(f"{workload.name}: {failure}", file=sys.stderr)
    attempted = sum(s.runs for s in rounds)
    failed = sum(s.failed_runs for s in rounds)
    # The first round warms up (first calls into numpy, scipy and LAPACK, the
    # allocator, the CPU caches) and was the slowest in most runs: it is
    # checked and counted, but its times are left out.
    ok = [s for s in plain[1:] if not s.failed_runs]
    if trace:
        # Counts repeat exactly from round to round; times are medians.
        values = {key: layers[-1][key] if key in COUNTS
                  else _median([row[key] for row in layers]) for key in layers[0]}
        values["trace.overhead_s"] = (_median([s.solve_s for s in traced])
                                      - _median([s.solve_s for s in plain]))
    else:
        values = {
            "setup_s": _quartile([s.setup_s for s in ok], 2),
            "iters_per_s": _quartile([s.iters / s.solve_s for s in ok], 0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
