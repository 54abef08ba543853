import json
import subprocess
import sys

import numpy as np
import pytest

from frameiso import MatrixFrame, WeightVector, dist_squared
from frameiso.cli import main
from frameiso.io import (
    FrameFileError,
    payload_to_frame,
    read_frame_file,
    write_frame_file,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_mixed(tmp_path, with_weights=True):
    frame = MatrixFrame(2, ([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0], [1.0, 1.0]))
    weights = WeightVector(("2/3", "2/3", "2/3")) if with_weights else None
    path = tmp_path / "mixed.json"
    write_frame_file(path, frame, weights)
    return path, frame


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    frame = MatrixFrame(3, (rng.standard_normal((3, 2)), rng.standard_normal((3, 1))))
    path = tmp_path / "frame.json"
    write_frame_file(path, frame, WeightVector(("3/2", "3/2")))
    loaded, weights = read_frame_file(path)
    assert loaded == frame  # exact equality, not approximate
    assert weights.weights == WeightVector(("3/2", "3/2")).weights
    # decimal mode round-trips too (repr is shortest round-trippable)
    write_frame_file(path, frame, human=True)
    loaded, _ = read_frame_file(path)
    assert loaded == frame


def test_payload_validation_messages():
    with pytest.raises(FrameFileError, match="schema_version"):
        payload_to_frame({"d": 2, "blocks": []})
    with pytest.raises(FrameFileError, match=r"blocks\[0\].data"):
        payload_to_frame(
            {"schema_version": 1, "d": 2, "blocks": [{"cols": 1, "data": [1.0]}]}
        )
    with pytest.raises(FrameFileError, match=r"weights\[0\]"):
        payload_to_frame(
            {
                "schema_version": 1,
                "d": 1,
                "blocks": [{"cols": 1, "data": [1.0]}],
                "weights": [{"num": 0, "den": 1}],
            }
        )
    with pytest.raises(FrameFileError, match="non-finite"):
        payload_to_frame(
            {"schema_version": 1, "d": 1, "blocks": [{"cols": 1, "data": ["inf"]}]}
        )


def test_check_command(tmp_path, capsys):
    path, _ = write_mixed(tmp_path)
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mf"] is True
    assert report["generic"] is True
    assert report["polytope"] is True
    assert report["relint"] is True
    assert report["pmf"] is False
    assert report["rif"] is False


def test_check_without_weights(tmp_path, capsys):
    path, _ = write_mixed(tmp_path, with_weights=False)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"] is None
    assert report["pmf"] is None


def test_check_over_size_guards(tmp_path, capsys):
    # d = 8 and 40 single-column blocks: C(40, 8) minors and 2^40 subsets.
    rng = np.random.default_rng(0)
    frame = MatrixFrame(8, tuple(rng.standard_normal((8, 1)) for _ in range(40)))
    path = tmp_path / "wide.json"
    write_frame_file(path, frame)
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["generic"] is None
    assert "size guard" in report["generic_note"]
    write_frame_file(path, frame, WeightVector.uniform(8, 40))
    for command in ("check", "solve-rif"):
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 2
        assert "size guard" in err


def test_check_equal_norm(tmp_path, capsys):
    r = 2.0**-0.5
    frame = MatrixFrame(2, ([r, 0.0], [0.0, r], [0.5, 0.5], [0.5, -0.5]))
    path = tmp_path / "tight.json"
    write_frame_file(path, frame)
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["equal_norm_pmf"] is True
    assert report["epsilon"] <= 1e-12


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {
        "schema_version": 1,
        "d": 2,
        "blocks": [
            {"cols": 2, "data": [1.0, 0.0, 0.0, 2.0]},
            {"cols": 1, "data": [1.0, -1.0, 3.0]},
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "blocks[1]" in err


def test_solve_rif_command(tmp_path, capsys):
    path, frame = write_mixed(tmp_path)
    out_path = tmp_path / "rif.json"
    code, out, _ = run_cli(
        ["solve-rif", str(path), "--human", "--out", str(out_path)], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["rif_residual"] <= 1e-7
    assert report["variety_residual_max"] <= 1e-7
    transformed, _ = read_frame_file(out_path)
    assert transformed.block_cols == frame.block_cols


def test_solve_rif_orthonormal_capacity(tmp_path, capsys):
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0]))
    path = tmp_path / "basis.json"
    write_frame_file(path, frame, WeightVector((1, 1)))
    code, out, _ = run_cli(["solve-rif", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["log_capacity"] == 0.0
    assert max(abs(v) for v in report["t_star"]) <= 1e-9


def test_solve_rif_requires_weights(tmp_path, capsys):
    path, _ = write_mixed(tmp_path, with_weights=False)
    code, _, err = run_cli(["solve-rif", str(path)], capsys)
    assert code == 2
    assert "weights" in err


def test_solve_rif_not_semistable(tmp_path, capsys):
    frame = MatrixFrame(2, ([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    path = tmp_path / "flat.json"
    write_frame_file(path, frame, WeightVector(("2/3", "2/3", "2/3")))
    code, out, _ = run_cli(["solve-rif", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "not_semistable"
    assert [0, 1] in report["violating_subsets"]


def test_paulsen_command(tmp_path, capsys):
    r = 2.0**-0.5
    frame = MatrixFrame(2, ([r, 0.0], [0.0, r], [0.5, 0.5], [0.5, -0.5]))
    path = tmp_path / "tight.json"
    write_frame_file(path, frame)
    out_path = tmp_path / "rounded.json"
    code, out, _ = run_cli(
        ["paulsen", str(path), "--seed", "5", "--human", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["output_equal_norm_pmf"] is True
    rounded, _ = read_frame_file(out_path)
    assert dist_squared(rounded, frame) <= report["bound"]


def test_paulsen_guard(tmp_path, capsys):
    frame = MatrixFrame(2, ([2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [1.0, -1.0]))
    path = tmp_path / "far.json"
    write_frame_file(path, frame)
    code, _, err = run_cli(["paulsen", str(path)], capsys)
    assert code == 2
    assert "0.3" in err


def test_minors_command(tmp_path, capsys):
    path, _ = write_mixed(tmp_path)
    code, out, _ = run_cli(["minors", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 6
    assert report["total"] == pytest.approx(18.0)
    assert sorted(t["value"] for t in report["terms"]) == pytest.approx(
        [1, 1, 4, 4, 4, 4]
    )


def test_gen_command(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = run_cli(
        ["gen", "--d", "2", "--cols", "1,1,2", "--kind", "equal-norm-pmf",
         "--seed", "3", "--weights", "uniform", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    frame, weights = read_frame_file(out_path)
    assert frame.block_cols == (1, 1, 2)
    assert weights is not None
    from frameiso import is_equal_norm_parseval

    assert is_equal_norm_parseval(frame, 1e-12)


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        run_cli(
            ["gen", "--d", "2", "--cols", "1,2", "--seed", "11", "--out", str(target)],
            capsys,
        )
    assert a.read_bytes() == b.read_bytes()


def test_reports_byte_identical(tmp_path):
    path, _ = write_mixed(tmp_path)
    cmd = [sys.executable, "-m", "frameiso", "solve-rif", str(path)]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
