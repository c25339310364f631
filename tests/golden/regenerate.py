"""The pinned numerics corpus: fixed-seed runs, and the script that rewrites it.

Run from the repository root::

    PYTHONPATH=src python3 tests/golden/regenerate.py          # print drift, rewrite
    PYTHONPATH=src python3 tests/golden/regenerate.py --check  # print drift and faults only

Each case is a short run with fixed seeds whose telemetry, counters and
final vectors are stored as ``tests/golden/<case>.json``:

* ``quadratic`` -- least squares on the 8-ring (q = 3 < d = 6);
* ``logistic_dense`` -- synthetic logistic data given as dense arrays;
* ``logistic_csr`` -- sparse logistic shards given as CSR, on a random graph;
* ``cli_run`` -- ``dearest run`` on a tiny LIBSVM file that the case writes,
  read back from the telemetry and summary CSVs it produces.

``tests/test_golden.py`` recomputes every case and compares it with its
file by ``compare``.  Before the script rewrites a file it prints the
largest absolute and relative difference per column against the committed
one, so that a change which regenerates the corpus can state its drift,
and then what ``compare`` finds beyond the tolerances.  With ``--check`` it
prints the same and writes nothing; it exits 1 when any case is outside the
tolerances (the corpus must be regenerated) and 0 when every drift is
within them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse as sp

from dearest import cli, metrics
from dearest.objectives import LogisticNCObjective, make_quadratic, make_synthetic_logistic
from dearest.optimizer import derive_config, run
from dearest.topology import build_random, build_ring, gossip_from_laplacian, laplacian

HERE = Path(__file__).resolve().parent
COLUMNS = metrics.CSV_HEADER.split(",")
EXACT_COLUMNS = ("t", "y_t", "k_t", "ifo_cum", "comm_cum")
T_MAX = 200

# A float column passes when every row has |new - old| <= RTOL * |old| +
# FLOOR * scale, where scale is the column's row-0 magnitude in the committed
# file.  u_t and v_t are 0 at row 0 (the initial estimators are exact), and
# they are squared gradient errors, so their scale is grad_norm's row 0
# squared.  The floor keeps a column that converges towards 0 (grad_norm,
# c_t) from failing on a relative error of a tiny value, which reorderings
# of the same sums move by many percent.  A stored vector passes when
# ||new - old|| <= RTOL * ||old||.
RTOL = 1e-9
FLOOR = 1e-12
SQUARED_GRAD = ("u_t", "v_t")


def _library_case(obj, graph) -> dict:
    w = gossip_from_laplacian(laplacian(graph))
    x0 = np.zeros(obj.d)
    cfg = dataclasses.replace(derive_config(obj, w, 1e-3, x0, seed=0), t_max=T_MAX)
    res = run(obj, w, cfg, x0)
    fs = res.final_state
    return {
        "rows": [[getattr(r, c) for c in COLUMNS] for r in res.telemetry],
        "exact": {
            **{k: getattr(cfg, k) for k in ("b", "big_k", "hat_k", "k_in")},
            **{k: getattr(fs, k) for k in ("ifo_count", "raw_grad_evals", "comm_rounds",
                                           "comm_rounds_all_calls")},
        },
        "vectors": {"eta_p": [cfg.eta, cfg.p], "x_out": res.x_out.tolist(),
                    "x": fs.x.ravel().tolist()},
    }


def quadratic() -> dict:
    return _library_case(make_quadratic(8, 40, 6, seed=101, q=3), build_ring(8))


def logistic_dense() -> dict:
    return _library_case(make_synthetic_logistic(8, 40, 6, 1e-3, seed=102), build_ring(8))


def logistic_csr() -> dict:
    rng = np.random.default_rng(103)
    teacher = rng.standard_normal(12)
    feats, labels = [], []
    for _ in range(6):
        f = sp.random(30, 12, density=0.3, format="csr", random_state=rng)
        f.data = rng.standard_normal(f.nnz)
        lab = np.where(f @ teacher >= 0.0, 1.0, -1.0)
        lab[rng.random(30) < 0.1] *= -1.0
        feats.append(f)
        labels.append(lab)
    return _library_case(LogisticNCObjective(feats, labels, 1e-3), build_random(6, 0.5, 3))


def _write_libsvm(path: Path) -> None:
    rng = np.random.default_rng(104)
    lines = []
    for _ in range(64):
        cols = np.sort(rng.choice(10, size=int(rng.integers(1, 5)), replace=False)) + 1
        vals = rng.integers(1, 64, size=cols.size) / 16.0
        label = "+1" if rng.random() < 0.5 else "-1"
        lines.append(label + "".join(f" {k}:{v:g}" for k, v in zip(cols, vals)))
    path.write_text("\n".join(lines) + "\n")


def cli_case(workdir: Path) -> dict:
    """``dearest run`` in ``workdir``: telemetry rows, summary counters and grad norm."""
    data, spec, out = workdir / "tiny.libsvm", workdir / "tiny.cfg", workdir / "out"
    _write_libsvm(data)
    spec.write_text(
        "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
        f"data = {data}\ndim = 10\nlambda = 1e-3\nt_max = 150\nseeds = 3\n"
    )
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(out)}):
        if cli.main(["run", str(spec)]) != 0:
            raise RuntimeError("dearest run failed")
    lines = (out / "telemetry_3.csv").read_text().splitlines()
    assert lines[0] == metrics.CSV_HEADER
    rows = [[int(v) if c in EXACT_COLUMNS else float(v) for c, v in zip(COLUMNS, line.split(","))]
            for line in lines[1:]]
    head, row = (line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    summary = dict(zip(head, row))
    return {
        "rows": rows,
        "exact": {k: int(summary[k]) for k in ("seed", "n", "ifo_total", "comm_rounds",
                                               "comm_rounds_all_calls")},
        "vectors": {"final_grad_norm": [float(summary["final_grad_norm"])]},
    }


def cli_run() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return cli_case(Path(tmp))


CASES = {f.__name__: f for f in (quadratic, logistic_dense, logistic_csr, cli_run)}


def load(name: str) -> dict:
    return json.loads((HERE / f"{name}.json").read_text())


def column_drift(new: dict, old: dict) -> dict[str, tuple[float, float]]:
    """Largest (absolute, relative) difference per telemetry column and per vector."""
    drift = {}
    pairs = [(c, [r[k] for r in new["rows"]], [r[k] for r in old["rows"]])
             for k, c in enumerate(COLUMNS)]
    pairs += [(name, vec, old["vectors"][name]) for name, vec in new["vectors"].items()]
    for name, a, b in pairs:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        diff = np.abs(a - b)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(b))
        drift[name] = (float(diff.max(initial=0.0)), float(rel.max(initial=0.0)))
    return drift


def compare(new: dict, old: dict) -> list[str]:
    """What differs beyond the corpus tolerances, one message per column or value."""
    if len(new["rows"]) != len(old["rows"]):
        return [f"{len(new['rows'])} telemetry rows, expected {len(old['rows'])}"]
    faults = [f"{k} = {new['exact'].get(k)}, expected {v}"
              for k, v in old["exact"].items() if new["exact"].get(k) != v]
    grad0 = abs(old["rows"][0][COLUMNS.index("grad_norm")])
    for k, col in enumerate(COLUMNS):
        a = np.array([r[k] for r in new["rows"]])
        b = np.array([r[k] for r in old["rows"]])
        if col in EXACT_COLUMNS:
            bad = np.flatnonzero(a != b)
        else:
            scale = grad0**2 if col in SQUARED_GRAD else abs(b[0])
            bad = np.flatnonzero(~(np.abs(a - b) <= RTOL * np.abs(b) + FLOOR * scale))
        if bad.size:
            faults.append(f"{col}: {bad.size} rows differ, first at t = {old['rows'][bad[0]][0]} "
                          f"({float(a[bad[0]])!r}, expected {float(b[bad[0]])!r})")
    for name, ref in old["vectors"].items():
        got, ref = np.asarray(new["vectors"].get(name, []), dtype=float), np.asarray(ref)
        if got.shape != ref.shape or not np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref):
            faults.append(f"{name} differs from the corpus")
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print the corpus drift and rewrite the corpus.")
    parser.add_argument("--check", action="store_true",
                        help="print the drift and faults, write nothing, exit 1 on any fault")
    check = parser.parse_args(argv).check
    outside = []
    for name, case in CASES.items():
        new = case()
        path = HERE / f"{name}.json"
        if path.exists():
            old = load(name)
            print(f"{name}: largest difference from the committed corpus (absolute, relative)")
            for col, (ab, rel) in column_drift(new, old).items():
                print(f"  {col:>16} {ab:.2e} {rel:.2e}")
            faults = compare(new, old)
            for fault in faults:
                print(f"  outside tolerance: {fault}")
            if faults:
                outside.append(name)
        else:
            print(f"{name}: new")
            outside.append(name)
        if not check:
            path.write_text(json.dumps(new, indent=1) + "\n")
    if outside:
        print(f"outside tolerance: {', '.join(outside)}")
    else:
        print("every case within tolerance")
    return 1 if check and outside else 0


if __name__ == "__main__":
    sys.exit(main())
