"""Spec parsing, experiment orchestration, and the command-line surface."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from dearest import cli
from dearest.cli import SpecError, load_spec, main, run_experiment
from dearest.datasets import normalize_rows, parse_libsvm, partition, shard_matrices
from dearest.objectives import LogisticNCObjective
from dearest.optimizer import DivergenceError
from dearest.topology import build_ring, write_graph_file

RING_QUAD_SPEC = """\
# smoke experiment
objective = quadratic
topology  = ring
m         = 4
n         = 50
d         = 10
epsilon   = 1e-3
t_max     = 200        # cap the worst-case budget
seeds     = 0,1
telemetry_stride = 10
"""


def write_spec(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSpec:
    def test_basic_keys(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 20\nlambda = 1e-4\nepsilon = 1e-3\n",
        )
        spec = load_spec(path)
        assert spec.topology == "ring"
        assert spec.m == 20
        assert spec.lambda_reg == pytest.approx(1e-4)

    def test_unknown_key_names_line(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\nstep_size = 0.1\n",
        )
        with pytest.raises(SpecError, match=r"exp.cfg:5: unknown key 'step_size'"):
            load_spec(path)

    def test_duplicate_seed_names_line_and_seed(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\nseeds = 5,3,5\n",
        )
        with pytest.raises(SpecError, match=r"exp.cfg:5: bad value for 'seeds': seed 5 is listed twice$"):
            load_spec(path)

    def test_non_utf8_bytes_name_file_and_offset(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"objective = quadratic\n# caf\xe9\n")
        with pytest.raises(SpecError, match=r"exp.cfg: byte 27 is not UTF-8 text"):
            load_spec(path)

    def test_empty_file_lists_required_keys(self, tmp_path):
        path = write_spec(tmp_path, "")
        with pytest.raises(SpecError, match="objective, topology, m, epsilon"):
            load_spec(path)

    def test_override_is_captured(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\neta = 0.01\n",
        )
        spec = load_spec(path)
        assert spec.overrides == {"eta": 0.01}

    def test_override_reaches_run_config(self, tmp_path):
        from dearest.cli import _configure, build_graph, build_objective
        from dearest.topology import gossip_from_laplacian, laplacian

        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            "eta = 0.01\nt_max = 5\n",
        )
        spec = load_spec(path)
        w = gossip_from_laplacian(laplacian(build_graph(spec)))
        obj = build_objective(spec, seed=0)
        cfg = _configure(spec, obj, w, seed=0)
        assert cfg.eta == 0.01  # override wins over the derived value
        assert cfg.t_max == 5

    def test_type_mismatch_names_key(self, tmp_path):
        path = write_spec(
            tmp_path, "objective = quadratic\ntopology = ring\nm = four\nepsilon = 1e-3\n"
        )
        with pytest.raises(SpecError, match=r"bad value for 'm'"):
            load_spec(path)

    @pytest.mark.parametrize("key", ["epsilon", "prob", "lambda", "flip_fraction", "eta", "p"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_key(self, tmp_path, key, value):
        lines = {"objective": "logistic", "topology": "ring", "m": "4", "epsilon": "1e-3"}
        lines[key] = value
        path = write_spec(tmp_path, "".join(f"{k} = {v}\n" for k, v in lines.items()))
        with pytest.raises(SpecError, match=rf"bad value for '{key}': '{value}' is not a finite"):
            load_spec(path)

    @pytest.mark.parametrize("key, value, message", [
        ("b", "0", "mini-batch size must be >= 1, got 0"),
        ("p", "1.5", r"refresh probability must be in \(0, 1\], got 1.5"),
        ("eta", "-1", "stepsize must be >= 0, got -1.0"),
        ("shared_seed", "-1", "shared_seed must be >= 0, got -1"),
        ("agent_seeds", "1,2,-3,4", r"agent_seeds\[2\] must be >= 0, got -3"),
        ("t_max", "2.5", r"invalid literal for int\(\) with base 10: '2.5'"),
    ], ids=["b", "p", "eta", "shared_seed", "agent_seeds", "t_max"])
    def test_bad_override_names_line_at_load(self, tmp_path, key, value, message):
        # Checked by the run field's own rule while the spec is read, not
        # after the data file is parsed and the first objective built.
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            f"{key} = {value}\n",
        )
        with pytest.raises(SpecError, match=rf"exp.cfg:5: bad value for '{key}': {message}$"):
            load_spec(path)

    def test_zero_iteration_budget_fails_before_set_up(self, tmp_path, monkeypatch):
        def build_graph(spec):
            raise AssertionError("the topology was built")

        monkeypatch.setattr(cli, "build_graph", build_graph)
        path = write_spec(
            tmp_path, "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\nt_max = 0\n")
        with pytest.raises(SpecError, match=r"exp.cfg:5: bad value for 't_max': .*t_max must be >= 1"):
            run_experiment(load_spec(path))

    @pytest.mark.parametrize("key, value, message", [
        ("prob", "0", r"must be in \(0, 1\], got 0.0"),
        ("flip_fraction", "2", r"must be in \[0, 1\], got 2.0"),
        ("n", "0", "must be >= 1, got 0"),
        ("d", "0", "must be >= 1, got 0"),
        ("dim", "0", "must be >= 1, got 0"),
        ("synthetic_dim", "-2", "must be >= 1, got -2"),
        ("synthetic_samples", "0", "must be >= 1, got 0"),
        ("telemetry_stride", "0", "must be >= 1, got 0"),
    ])
    def test_out_of_range_key_names_line_before_set_up(self, tmp_path, monkeypatch, key, value,
                                                        message):
        def build_graph(spec):
            raise AssertionError("the topology was built")

        monkeypatch.setattr(cli, "build_graph", build_graph)
        path = write_spec(
            tmp_path, f"objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n{key} = {value}\n")
        with pytest.raises(SpecError, match=rf"exp.cfg:5: bad value for '{key}': {message}$"):
            run_experiment(load_spec(path))

    @pytest.mark.parametrize("text, message", [
        ("objective = quadratic\ntopology = ring\nm = 2\n", r"topology = ring needs m >= 3, got m=2"),
        ("objective = logistic\ntopology = complete\nm = 4\nsynthetic_samples = 3\n",
         "synthetic_samples must be >= m, got 3 for m=4"),
    ], ids=["ring-m", "synthetic-samples"])
    def test_cross_key_check_names_file_and_key(self, tmp_path, monkeypatch, text, message):
        def build_graph(spec):
            raise AssertionError("the topology was built")

        monkeypatch.setattr(cli, "build_graph", build_graph)
        path = write_spec(tmp_path, text + "epsilon = 1e-3\n")
        with pytest.raises(SpecError, match=rf"exp.cfg: {message}$"):
            run_experiment(load_spec(path))

    def test_agent_seeds_override_must_match_m(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\nagent_seeds = 1,2,3\n",
        )
        with pytest.raises(SpecError, match="exp.cfg: agent_seeds lists 3 seeds for m=4 agents"):
            load_spec(path)

    def test_agent_seeds_override_is_captured(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\nagent_seeds = 4,3,2,1\n",
        )
        assert load_spec(path).overrides == {"agent_seeds": (4, 3, 2, 1)}

    def test_negative_seed_names_line(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\nseeds = 0,-1\n",
        )
        with pytest.raises(SpecError, match=r"exp.cfg:5: bad value for 'seeds': seed -1 is negative$"):
            load_spec(path)

    @pytest.mark.parametrize("key", ["data_seed", "topology_seed"])
    def test_negative_seed_key_names_line(self, tmp_path, key):
        # Checked at load, so the error names the key and the line, not numpy's.
        path = write_spec(
            tmp_path,
            f"objective = quadratic\ntopology = ring\nm = 4\nepsilon = 1e-3\n{key} = -1\n",
        )
        with pytest.raises(SpecError, match=rf"exp.cfg:5: bad value for '{key}': seed -1 is negative$"):
            load_spec(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic\nobjective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n",
        )
        with pytest.raises(SpecError, match="duplicate key"):
            load_spec(path)

    def test_missing_data_file(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\ndata = nosuch.libsvm\n",
        )
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(path)

    def test_comment_only_values(self, tmp_path):
        path = write_spec(
            tmp_path,
            "objective = quadratic  # synthetic\ntopology = complete\nm = 4\nepsilon = 1e-2\n",
        )
        assert load_spec(path).topology == "complete"


class TestRunExperiment:
    def test_quadratic_smoke(self, tmp_path):
        out = tmp_path / "out"
        spec = load_spec(write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {out}\n"))
        assert run_experiment(spec) == 0
        assert (out / "summary.csv").exists()
        assert (out / "telemetry_0.csv").exists()
        assert (out / "telemetry_1.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("seed,n,final_grad_norm")
        assert len(summary) == 3
        telemetry = (out / "telemetry_0.csv").read_text().splitlines()
        assert telemetry[0] == "t,y_t,k_t,f_bar,grad_norm,u_t,v_t,c_t,phi_t,ifo_cum,comm_cum"
        assert len(telemetry) == 1 + 20  # stride 10 over 200 iterations

    def test_deterministic_output_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        spec1 = load_spec(write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {out1}\n", "a.cfg"))
        spec2 = load_spec(write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {out2}\n", "b.cfg"))
        run_experiment(spec1)
        run_experiment(spec2)
        assert (out1 / "telemetry_0.csv").read_bytes() == (out2 / "telemetry_0.csv").read_bytes()
        assert (out1 / "telemetry_1.csv").read_bytes() == (out2 / "telemetry_1.csv").read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "env_out"
        monkeypatch.setenv("DEAREST_OUTPUT_DIR", str(override))
        spec = load_spec(write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {tmp_path / 'ignored'}\n"))
        run_experiment(spec)
        assert (override / "summary.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_failed_seed_keeps_earlier_csvs_and_writes_no_summary(self, tmp_path, monkeypatch):
        # Seed 1's run diverges after seed 0's has written its telemetry.
        out = tmp_path / "out"
        path = write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {out}\n")
        alone = tmp_path / "alone"
        path_alone = write_spec(tmp_path, RING_QUAD_SPEC.replace("seeds     = 0,1", "seeds = 0")
                                + f"output_dir = {alone}\n", name="alone.cfg")
        assert run_experiment(load_spec(path_alone)) == 0
        real_run = cli.run

        def diverging_second_run(obj, w, cfg, x0, **kwargs):
            if (out / "telemetry_0.csv").exists():
                cfg = dataclasses.replace(cfg, eta=1e300)
            return real_run(obj, w, cfg, x0, **kwargs)

        monkeypatch.setattr(cli, "run", diverging_second_run)
        with pytest.raises(DivergenceError):
            run_experiment(load_spec(path))
        assert sorted(p.name for p in out.iterdir()) == ["telemetry_0.csv"]
        assert (out / "telemetry_0.csv").read_bytes() == (alone / "telemetry_0.csv").read_bytes()

    def test_dataset_partition_sizes_in_summary(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(32561):
            idx = np.sort(rng.choice(123, size=3, replace=False)) + 1
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(label + " " + " ".join(f"{i}:1" for i in idx))
        data = tmp_path / "shaped.libsvm"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        spec = load_spec(
            write_spec(
                tmp_path,
                "objective = logistic\ntopology = ring\nm = 20\nepsilon = 1e-3\n"
                f"data = {data}\ndim = 123\nlambda = 1e-4\nt_max = 3\nseeds = 0\n"
                f"output_dir = {out}\n",
                "data.cfg",
            )
        )
        assert run_experiment(spec) == 0
        row = (out / "summary.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "1628"  # 32561 // 20, one sample dropped


def write_valued_libsvm(path, rows, d, nnz, seed):
    """LIBSVM rows of ``nnz`` distinct features with real values, so that scaling matters."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(rows):
        idx = np.sort(rng.choice(d, size=nnz, replace=False)) + 1
        vals = rng.standard_normal(nnz)
        label = "+1" if rng.random() < 0.5 else "-1"
        lines.append(label + "".join(f" {i}:{float(v)!r}" for i, v in zip(idx, vals)))
    path.write_text("\n".join(lines) + "\n")
    return path


def logistic_data_spec(tmp_path, data, out, dim, extra=""):
    return load_spec(write_spec(
        tmp_path,
        "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
        f"data = {data}\ndim = {dim}\nlambda = 1e-4\nt_max = 30\nseeds = 3,4\n"
        f"telemetry_stride = 1\noutput_dir = {out}\n{extra}",
        f"{out.name}.cfg",
    ))


class TestDataObjective:
    @pytest.mark.parametrize("normalize", ["false", "true"])
    def test_csvs_are_the_shard_matrices_flow(self, tmp_path, monkeypatch, normalize):
        # Each seed's objective gathers its rows from the once-parsed (and
        # once-scaled) file; the CSVs are byte for byte those of per-agent
        # copies from shard_matrices fed to the list constructor.
        data = write_valued_libsvm(tmp_path / "valued.libsvm", 203, 20, 5, seed=70)
        new = logistic_data_spec(tmp_path, data, tmp_path / "new", 20, f"normalize = {normalize}\n")
        assert run_experiment(new) == 0

        def shard_matrices_flow(spec, seed, samples=None):
            raw = parse_libsvm(spec.data, spec.dim)
            part = partition(raw, spec.m, seed)
            feats, labels = shard_matrices(normalize_rows(raw) if spec.normalize else raw, part)
            return LogisticNCObjective(feats, labels, spec.lambda_reg)

        monkeypatch.setattr(cli, "build_objective", shard_matrices_flow)
        old = logistic_data_spec(tmp_path, data, tmp_path / "old", 20, f"normalize = {normalize}\n")
        assert run_experiment(old) == 0
        for seed in (3, 4):
            name = f"telemetry_{seed}.csv"
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_build_objective_peak_memory(self, tmp_path):
        # One seed's objective is built with no per-agent copies of its rows
        # and no temporary the size of its data: the split is a view of one
        # permutation, which from_rows reads in place, and from_rows releases
        # its per-row counts before storing.  The peak stays below 1.25 times
        # the stacked matrix it keeps (1.22 measured; 2.4 with the copies,
        # 1.41 squaring a whole agent's values).
        data = write_valued_libsvm(tmp_path / "valued.libsvm", 8000, 123, 14, seed=71)
        spec = logistic_data_spec(tmp_path, data, tmp_path / "out", 123)
        samples = cli.load_samples(spec)
        tracemalloc.start()
        try:
            obj = cli.build_objective(spec, 3, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = obj._x
        assert x.nnz == 14 * 8000
        assert peak < 1.25 * (x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)


class TestMain:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "cli_out"
        path = write_spec(tmp_path, RING_QUAD_SPEC.replace("seeds     = 0,1", "seeds = 0") + f"output_dir = {out}\n")
        assert main(["run", str(path)]) == 0
        assert (out / "summary.csv").exists()

    def test_run_invalid_spec_exits_nonzero_without_csv(self, tmp_path, capsys):
        out = tmp_path / "never"
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            f"data = missing.libsvm\noutput_dir = {out}\n",
        )
        assert main(["run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_run_flip_fraction_out_of_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "never"
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            f"flip_fraction = 1.5\noutput_dir = {out}\n",
        )
        assert main(["run", str(path)]) == 1
        assert "exp.cfg:5: bad value for 'flip_fraction': must be in [0, 1], got 1.5" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_run_negative_lambda_exits_1_before_parsing(self, tmp_path, capsys, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "parse_libsvm", lambda *args: parsed.append(args))
        data = write_valued_libsvm(tmp_path / "valued.libsvm", 20, 5, 2, seed=72)
        out = tmp_path / "never"
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            f"data = {data}\nlambda = -1\noutput_dir = {out}\n",
        )
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: lambda must be >= 0, got -1.0\n"
        assert parsed == [] and not out.exists()

    def test_run_huge_stepsize_reports_divergence(self, tmp_path, capsys):
        # The suite turns numpy's warnings into errors, as ``python -W error``
        # does: the iterate is checked before the logistic oracle overflows at it.
        out = tmp_path / "never"
        path = write_spec(
            tmp_path,
            "objective = logistic\ntopology = ring\nm = 4\nepsilon = 1e-3\n"
            f"synthetic_samples = 32\nsynthetic_dim = 3\neta = 1e300\nt_max = 5\noutput_dir = {out}\n",
        )
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: iterate norm exceeded 1e+12 at iteration 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_run_output_dir_at_a_file_fails_before_compute(self, tmp_path, capsys, monkeypatch,
                                                           under):
        # Checked before any compute, not when the first CSV is written.
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        out = taken / under
        built = []
        monkeypatch.setattr(cli, "build_graph", lambda spec: built.append(spec))
        path = write_spec(tmp_path, RING_QUAD_SPEC + f"output_dir = {out}\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: output directory {out}: {taken} is not a directory\n")
        assert built == []
        assert taken.read_text() == "keep me\n"
        assert list(tmp_path.rglob("*.csv")) == []

    def test_run_unwritable_output_dir_fails_before_compute(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_graph", lambda spec: built.append(spec))
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "new" / "out"))
        assert main(["run", str(write_spec(tmp_path, RING_QUAD_SPEC))]) == 1
        err = capsys.readouterr().err
        assert err == f"error: output directory {tmp_path}/new/out: {tmp_path} is not writable\n"
        assert built == [] and not (tmp_path / "new").exists()

    def test_spectra_ring(self, capsys):
        assert main(["spectra", "ring", "20"]) == 0
        out = capsys.readouterr().out
        assert "lambda2 = 0.975528" in out
        assert "gap = 0.0244717" in out

    def test_spectra_ring_400(self, capsys):
        started = time.perf_counter()
        assert main(["spectra", "ring", "400"]) == 0
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        gap = (1.0 - math.cos(2.0 * math.pi / 400)) / 2.0
        printed = dict(line.split(" = ") for line in out.splitlines())
        assert printed["edges"] == "400"
        assert float(printed["gap"]) == pytest.approx(gap, abs=1e-12)
        assert elapsed < 10.0  # LAPACK takes milliseconds; a Python eigensolver takes minutes

    def test_spectra_random(self, capsys):
        assert main(["spectra", "random", "12", "--prob", "0.3", "--seed", "2"]) == 0
        assert "gap =" in capsys.readouterr().out

    def test_spectra_complete(self, capsys):
        assert main(["spectra", "complete", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "lambda2 = 0" in out
        assert "gap = 1" in out

    def test_spectra_file_matches_the_built_ring(self, tmp_path, capsys):
        path = tmp_path / "ring6.txt"
        write_graph_file(build_ring(6), path)
        assert main(["spectra", "file", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["spectra", "ring", "6"]) == 0
        assert from_file == capsys.readouterr().out
        assert "lambda2 = 0.75" in from_file.splitlines()
        assert "gap = 0.25" in from_file.splitlines()

    def test_spectra_bad_edge_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("m 3\n0 1\n2 2\n")
        assert main(["spectra", "file", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: self-loop at agent 2\n"

    def test_params_output(self, capsys):
        assert main(["params", "20", "1628", "3.5", "0.9755", "0.05"]) == 0
        assert capsys.readouterr().out == (
            "eta = 0.142857142857\nb = 55\np = 0.0326797385621\nt_max = 22400\n"
            "big_k = 39\nhat_k = 39\nk_in = 0\n"
        )

    def test_params_rejects_bad_lambda2(self, capsys):
        assert main(["params", "4", "16", "1.0", "1.5", "0.1"]) == 1
        assert "lambda2" in capsys.readouterr().err

    def test_params_rejects_negative_lambda2(self, capsys):
        # FastMix's momentum needs lambda2 in [0, 1); no gossip matrix has a
        # negative one.
        assert main(["params", "20", "1628", "3.5", "-0.5", "1e-3"]) == 1
        assert "lambda2 must be in [0, 1), got -0.5" in capsys.readouterr().err
