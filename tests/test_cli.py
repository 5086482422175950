import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoedf import ArrayNoiseConfig, predict_edf
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
