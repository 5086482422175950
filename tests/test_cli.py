import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoedf import ArrayNoiseConfig, McConfig, compare, ensemble_spectrum, predict_edf, run_mc
from isoedf.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    """Header JSON, column names and float rows of a `#`-headed CSV output."""
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, lines[1], rows


class TestCompare:
    def test_rejects_c_that_disagrees_with_snapshots(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--n", "51", "--c", "0.5", "--snapshots", "50", "--trials", "2"])
        assert exc.value.code == 2
        assert "--snapshots" in capsys.readouterr().err

    def test_models_the_simulated_aspect_ratio(self, capsys):
        # --c 1.4 at n = 51 simulates L = round(51 / 1.4) = 36, i.e. c = 51/36
        code, out, _ = run_cli(
            capsys, "compare", "--n", 51, "--c", 1.4, "--trials", 4, "--grid-points", 300
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == pytest.approx(51 / 36, rel=1e-15)
        assert payload["zero_mass_model"] == pytest.approx(15 / 51, abs=1e-12)
        assert payload["zero_frac_empirical"] == pytest.approx(15 / 51, abs=1e-12)

    def test_agreeing_c_and_snapshots_are_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", 12, "--c", 0.5, "--snapshots", 24, "--trials", 2,
            "--grid-points", 64,
        )
        assert code == 0
        assert json.loads(out)["c"] == 0.5


def test_invalid_config_exits_2_with_one_line(capsys):
    # --c 100 at n = 4 rounds the snapshot count to 0
    code, out, err = run_cli(capsys, "simulate", "--n", 4, "--c", 100)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "snapshots" in err and "Traceback" not in err


def test_predict_header_and_out_round_trip(capsys, tmp_path):
    path = tmp_path / "pred.csv"
    code, out, _ = run_cli(
        capsys, "predict", "--n", 12, "--c", 0.5, "--grid-points", 64, "--out", path
    )
    assert code == 0 and out == ""
    header, columns, rows = parse_csv(path.read_text())
    assert set(header) == {"atoms", "c", "eta", "zero_mass", "wall_ms"}
    assert header["c"] == 0.5 and header["eta"] == 1e-6 and header["zero_mass"] == 0.0
    assert columns == "x,f"
    pred = predict_edf(ArrayNoiseConfig(n=12), 0.5, points=64)
    assert header["atoms"] == pred.atom_count
    np.testing.assert_allclose(rows[:, 0], pred.density.grid, rtol=1e-11)
    np.testing.assert_allclose(rows[:, 1], pred.density.values, rtol=1e-11)


@pytest.mark.parametrize(
    "argv,columns,width",
    [
        (["eigvals"], "index,gamma", 2),
        (["atoms", "--c", "0.5"], "location,weight", 2),
        (["predict", "--c", "0.5", "--grid-points", "32"], "x,f", 2),
        (["simulate", "--snapshots", "24", "--trials", "2"], "trial,index,g", 3),
        (
            ["simulate", "--snapshots", "24", "--trials", "2", "--format", "hist"],
            "bin_left,bin_right,height",
            3,
        ),
    ],
)
def test_csv_columns(capsys, argv, columns, width):
    code, out, _ = run_cli(capsys, *argv, "--n", 12)
    assert code == 0
    _, got, rows = parse_csv(out)
    assert got == columns
    assert rows.shape[1] == width and len(rows) > 0


def test_closed_pipe_exits_quietly():
    # 20000 rows (~0.6 MB) cannot all sit in the pipe buffer, so the writer
    # is still writing when the reader closes its end
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "isoedf.cli", "predict", "--n", "4", "--c", "100",
         "--grid-points", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert lines[1] == b"x,f\n"
    assert b"Traceback" not in err
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["eigvals", "--n", 1],
        ["eigvals", "--n", 12, "--zeta", 0],
        ["eigvals", "--n", 12, "--zeta", "nan"],
        ["predict", "--n", 12, "--c", 0],
        ["predict", "--n", 12, "--c", -1],
        ["predict", "--n", 12, "--c", "nan"],
        ["predict", "--n", 12, "--c", "inf", "--grid-points", 32],
        ["atoms", "--n", 12, "--c", "inf"],
        ["simulate", "--n", 12, "--snapshots", 0],
        ["simulate", "--n", 12, "--c", 0.5, "--trials", 0],
        ["simulate", "--n", 12, "--c", 0.5, "--bins", 0],
        ["simulate", "--n", 12, "--c", 0.5, "--seed", -1],
        ["predict", "--n", 12, "--c", 0.5, "--eta", 0],
        ["predict", "--n", 12, "--c", 0.5, "--eta", "inf", "--grid-points", 32],
        ["eigvals", "--n", 12, "--zeta", "inf"],
        ["eigvals", "--n", 12, "--zeta", 1e308],
        ["predict", "--n", 12, "--c", 0.5, "--grid-points", 15],
        ["predict", "--n", 12, "--c", 1, "--grid-points", 15],
        ["compare", "--n", 12, "--c", 0],
        ["eigvals", "--n", 12, "--out", "/dev/null/x.csv"],
    ],
    ids=lambda argv: " ".join(map(str, argv)),
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("isoedf: invalid input: ") and "Traceback" not in err


def test_bad_out_fails_before_any_computation(capsys, monkeypatch):
    def no_mc(mc):
        raise AssertionError("run_mc called before --out was opened")

    monkeypatch.setattr("isoedf.cli.run_mc", no_mc)
    code, out, err = run_cli(
        capsys, "simulate", "--n", 51, "--c", 0.25, "--trials", 2000, "--out", "/dev/null/x.csv"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("isoedf: invalid input: ")


def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    # whether a huge allocation is refused depends on the host, so raise it here
    def no_memory(mc):
        raise MemoryError("Unable to allocate 8.73 TiB")

    monkeypatch.setattr("isoedf.cli.run_mc", no_memory)
    code, out, err = run_cli(capsys, "simulate", "--n", 12, "--snapshots", 10**11, "--trials", 1)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("isoedf: out of memory: ") and "8.73 TiB" in err


def test_numeric_failure_prints_one_stderr_line():
    # a subprocess, because pytest captures the warnings a solver might emit;
    # at c = 1e-6 rounding puts some residual above the 1e-10 bound
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "isoedf.cli", "predict", "--n", "51", "--c", "1e-6",
         "--grid-points", "200"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(b"isoedf: numeric failure: ")


def raw_rows(text):
    """Data rows of a `#`-headed CSV output as lists of field strings."""
    return [line.split(",") for line in text.splitlines()[2:]]


def test_eigvals_rows(capsys):
    code, out, _ = run_cli(capsys, "eigvals", "--n", 12)
    assert code == 0
    rows = raw_rows(out)
    assert [r[0] for r in rows] == [str(i) for i in range(1, 13)]
    expected = ensemble_spectrum(ArrayNoiseConfig(n=12)).values
    np.testing.assert_allclose([float(r[1]) for r in rows], expected, rtol=1e-11)


def test_pooled_rows(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", 12, "--snapshots", 24, "--trials", 3, "--seed", 5
    )
    assert code == 0
    header = json.loads(out.splitlines()[0][2:])
    assert set(header) == {
        "n", "zeta", "snapshots", "trials", "seed", "bins", "c", "zero_count", "wall_ms"
    }
    assert header["seed"] == 5 and header["c"] == 0.5 and header["wall_ms"] > 0
    rows = raw_rows(out)
    assert [r[0] for r in rows] == [str(t) for t in range(3) for _ in range(12)]
    assert [r[1] for r in rows] == [str(i) for _ in range(3) for i in range(1, 13)]
    emp = run_mc(McConfig(cfg=ArrayNoiseConfig(n=12), snapshots=24, trials=3, seed=5))
    np.testing.assert_allclose([float(r[2]) for r in rows], emp.per_trial.ravel(), rtol=1e-11)


def test_hist_rows(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", 12, "--snapshots", 24, "--trials", 3, "--seed", 5,
        "--bins", 10, "--format", "hist",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    emp = run_mc(
        McConfig(cfg=ArrayNoiseConfig(n=12), snapshots=24, trials=3, seed=5, bins=10)
    )
    np.testing.assert_allclose(rows[:, 0], emp.hist_edges[:-1], rtol=1e-11)
    np.testing.assert_allclose(rows[:, 1], emp.hist_edges[1:], rtol=1e-11)
    np.testing.assert_allclose(rows[:, 2], emp.hist_heights, rtol=1e-11)


def test_bench_payload(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", 51, "--c", 0.5, "--grid-points", 200)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n", "zeta", "c", "grid_points", "eta", "atoms_reduced", "atoms_full",
        "reduced_ms", "full_ms", "speedup",
    ]
    assert payload["atoms_reduced"] < payload["atoms_full"] == 51
    assert payload["grid_points"] == 200 and payload["c"] == 0.5


def test_compare_payload(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--n", 12, "--c", 0.5, "--trials", 2, "--grid-points", 64
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n", "zeta", "c", "mode", "atom_count", "ks", "l1", "zero_mass_model",
        "zero_frac_empirical", "runtime_model_ms", "runtime_mc_ms", "seed",
    ]
    pred = predict_edf(ArrayNoiseConfig(n=12), 0.5, points=64)
    emp = run_mc(McConfig(cfg=ArrayNoiseConfig(n=12), snapshots=24, trials=2))
    rep = compare(pred.density, emp)
    assert payload["atom_count"] == pred.atom_count
    assert (payload["ks"], payload["l1"]) == (rep.ks, rep.l1)
    assert payload["runtime_model_ms"] > 0 and payload["runtime_mc_ms"] > 0
