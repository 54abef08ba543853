import json
import re
import subprocess
import sys

import numpy as np
import pytest

import frameiso.frames
import frameiso.objective
from frameiso import (
    DEFAULT_TOL,
    MatrixFrame,
    SolverConfig,
    WeightVector,
    dist_squared,
    nearness,
    paulsen_round,
)
from frameiso.cli import build_parser, main
from frameiso.generate import random_frame
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
    # float.fromhex and float(int) raise OverflowError past the float range.
    for value in ("0x1p+1024", 10**400):
        with pytest.raises(FrameFileError, match=r"^blocks\[0\].data\[1\]: .*float range"):
            payload_to_frame(
                {"schema_version": 1, "d": 2, "blocks": [{"cols": 1, "data": [1.0, value]}]}
            )
    # JSON true is not an integer, though Python's bool is an int.
    for field, payload in _boolean_payloads():
        with pytest.raises(FrameFileError, match=field):
            payload_to_frame(payload)
    for field, payload in _malformed_payloads():
        with pytest.raises(FrameFileError, match=field):
            payload_to_frame(payload)


def _malformed_payloads():
    """(field pattern, payload) pairs that fail a shape or real check."""
    def payload(blocks=None, weights=None, data=1.0):
        out = {"schema_version": 1, "d": 1, "blocks": blocks or [{"cols": 1, "data": [data]}]}
        if weights is not None:
            out["weights"] = weights
        return out

    return [
        ("^top level: expected an object", [payload()]),
        ("^blocks: expected a non-empty list", {"schema_version": 1, "d": 1, "blocks": []}),
        (r"^blocks\[1\]: expected an object",
         payload(blocks=[{"cols": 1, "data": [1.0]}, [1.0]])),
        ("^weights: expected 1 entries, got 2",
         payload(weights=[{"num": 1, "den": 1}, {"num": 1, "den": 1}])),
        (r"^weights\[0\]: expected an object", payload(weights=["1/1"])),
        (r"^blocks\[0\].data\[0\]: expected a real number$", payload(data=True)),
        (r"^blocks\[0\].data\[0\]: expected a real number, got NoneType", payload(data=None)),
        (r"^blocks\[0\].data\[0\]: cannot parse real 'one'", payload(data="one")),
    ]


def _boolean_payloads():
    """(field pattern, payload) pairs with true where an integer belongs."""
    def payload(version=1, d=1, cols=1, num=1, den=1):
        return {
            "schema_version": version,
            "d": d,
            "blocks": [{"cols": cols, "data": [1.0]}],
            "weights": [{"num": num, "den": den}],
        }

    return [
        ("schema_version", payload(version=True)),
        ("^d:", payload(d=True)),
        (r"blocks\[0\].cols", payload(cols=True)),
        (r"weights\[0\].num", payload(num=True)),
        (r"weights\[0\].den", payload(den=True)),
    ]


def test_check_command(tmp_path, capsys):
    path, _ = write_mixed(tmp_path)
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mf"] is True
    assert report["polytope"] is True
    assert report["relint"] is True
    assert report["pmf"] is False
    assert report["rif"] is False


def test_check_undersized_frame(tmp_path, capsys):
    # N = 2 columns in d = 3 span a plane: reported, not refused.
    path = tmp_path / "frame.json"
    write_frame_file(path, MatrixFrame(3, ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])))
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["mf"] is False


def test_check_without_weights(tmp_path, capsys):
    path, _ = write_mixed(tmp_path, with_weights=False)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"] is None
    assert report["pmf"] is None


def test_check_over_size_guards(tmp_path, capsys, monkeypatch):
    # d = 8 and 40 single-column blocks: C(40, 8) minors and 2^40 subsets.
    rng = np.random.default_rng(0)
    frame = MatrixFrame(8, tuple(rng.standard_normal((8, 1)) for _ in range(40)))
    path = tmp_path / "wide.json"

    def enumerated(mat):
        raise AssertionError("check enumerated the column minors")

    # check takes no minor of the frame, with or without weights.
    for module in (frameiso.frames, frameiso.objective):
        monkeypatch.setattr(module, "_column_minors", enumerated)
    write_frame_file(path, frame)
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mf"] is True and report["polytope"] is None
    assert "generic" not in report and "generic_note" not in report
    # The weights are decided by the polynomial certificate, not by the
    # 2^40 subset enumeration.
    write_frame_file(path, frame, WeightVector.uniform(8, 40))
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"] is True
    assert report["relint"] is True
    assert "generic" not in report and "generic_note" not in report
    code, out, _ = run_cli(["solve-rif", str(path), "--human"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "converged"


def test_check_denominators_over_certificate_guard(tmp_path, capsys, wide_denominators):
    # The certificate refuses these denominators; the subset enumeration
    # decides the three blocks instead.
    path = tmp_path / "denominators.json"
    write_frame_file(path, wide_denominators.frame, wide_denominators.weights)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"] is True
    assert report["relint"] is True


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
    # JSON true where an integer belongs: exit 2 naming the field, not a
    # traceback.
    for field, payload in _boolean_payloads():
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert re.search(field, err.removeprefix("error: "))
    # A hex-float past the float range.
    path.write_text(json.dumps(
        {"schema_version": 1, "d": 2, "blocks": [{"cols": 1, "data": [1.0, "0x1p+1024"]}]}
    ))
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: blocks[0].data[1]: ")
    # A file that is not UTF-8 is named like any other unreadable file.
    path.write_bytes(b'{"d": "\xff"}')
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {path}: ")
    # An integer past the interpreter's digit limit fails inside json.load.
    path.write_text(
        '{"schema_version": 1, "d": 1, "blocks": [{"cols": 1, "data": [%s]}]}' % ("9" * 5000)
    )
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {path}: ")
    path.write_text('{"schema_version": 1,')
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON (")


def test_check_zero_block(tmp_path, capsys):
    # A zero block makes the frame no RIF candidate and violates the
    # polytope on its own subset: {3} has weight 1/2 but rank 0.
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]))
    path = tmp_path / "zero.json"
    write_frame_file(path, frame, WeightVector.uniform(2, 4))
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["rif"] is None
    assert report["rif_note"] == "zero block: normalised term undefined"
    assert report["polytope"] is False
    assert report["violating_subsets"] == [[3]]


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


def test_solve_rif_residual_over_minor_guard(tmp_path, capsys):
    # C(40, 8) column selections exceed the guard; the residual is still
    # reported, from the kernel's gradient.
    frame = random_frame(8, [4] * 10, np.random.default_rng(3))
    path = tmp_path / "wide.json"
    write_frame_file(path, frame, WeightVector.uniform(8, 10))
    code, out, _ = run_cli(["solve-rif", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["variety_residual_max"] <= 1e-7


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


def test_solve_rif_widely_scaled_member(tmp_path, capsys):
    # Block norms 10^2 apart; a member in the relative interior.
    frame = MatrixFrame(
        2, ([50.0, -150.0], [-100.0, 20.0], [0.12, -0.14], [0.3, -1.4])
    )
    path = tmp_path / "spread.json"
    write_frame_file(path, frame, WeightVector(("1/2",) * 4))
    code, out, _ = run_cli(["solve-rif", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["rif_residual"] <= 1e-7


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


def test_check_widely_scaled_blocks(tmp_path, capsys):
    # Ranked against its largest singular value, [[1, 0], [0, 1e-12]] has
    # rank 1, so the two blocks of weight 1 violate.
    path = tmp_path / "scaled.json"
    write_frame_file(path, MatrixFrame(2, ([1.0, 0.0], [0.0, 1e-12])), WeightVector((1, 1)))
    code, out, _ = run_cli(["check", str(path), "--human"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["polytope"] is False
    assert report["violating_subsets"] == [[0, 1]]
    assert report["relint"] is False


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


def test_paulsen_no_solve_converges(tmp_path, capsys, tight_four_frame):
    # With no iteration allowed, every candidate's solve ends as max_iters:
    # paulsen_round gives up and the command exits 2 with no report.
    message = "no candidate's isotropy solve converged (last status=max_iters, "
    with pytest.raises(RuntimeError, match=re.escape(message)):
        paulsen_round(tight_four_frame, SolverConfig(max_iters=0))
    path = tmp_path / "tight.json"
    write_frame_file(path, tight_four_frame)
    code, out, err = run_cli(["paulsen", str(path), "--max-iters", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message)


# The builder refuses an overflowing frame operator and the block norms
# overflow under np.errstate, so no numpy warning reaches stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_operator_overflow(tmp_path, capsys):
    # The frame operator of (1e200 e1, e2, e1 + e2) overflows: the frame
    # measures inf-nearly and is no matrix frame, so paulsen refuses it
    # with a message, not a traceback.
    frame = MatrixFrame(2, ([1e200, 0.0], [0.0, 1.0], [1.0, 1.0]))
    path = tmp_path / "overflow.json"
    write_frame_file(path, frame)
    code, out, err = run_cli(["check", str(path)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["mf"] is False
    for key in ("epsilon", "epsilon_operator", "epsilon_norms"):
        assert report[key] == "inf"
    code, out, err = run_cli(["paulsen", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: input is inf-nearly; the pipeline needs < 0.3\n"
    # With uniform weights check also runs the weighted residuals and the
    # certificate, whose floor reads the overflowing operator too.
    write_frame_file(path, frame, WeightVector.uniform(2, 3))
    code, out, err = run_cli(["check", str(path)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["mf"], report["pmf"], report["rif"]) == (False, False, False)
    assert report["epsilon"] == "inf"
    assert report["polytope"] is False


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


def test_minors_over_size_guard(tmp_path, capsys):
    # d = 8 and 40 single-column blocks: C(40, 8) terms, past the guard.
    rng = np.random.default_rng(0)
    frame = MatrixFrame(8, tuple(rng.standard_normal((8, 1)) for _ in range(40)))
    path = tmp_path / "wide.json"
    write_frame_file(path, frame)
    code, out, err = run_cli(["minors", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the size guard 1000000" in err
    # N = 2 columns in d = 3: no d-column selection exists.
    write_frame_file(path, MatrixFrame(3, ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])))
    code, out, err = run_cli(["minors", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: undersized frame: N=2 < d=3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-rif", "--max-iters", "-5"],
        ["solve-rif", "--grad-tol", "-1"],
        ["solve-rif", "--tol", "-1e-9"],
        ["check", "--tol", "nan"],
        ["check", "--tol", "inf"],
        ["paulsen", "--tol", "nan"],
        ["paulsen", "--grad-tol", "inf"],
        ["paulsen", "--max-iters", "-1"],
        ["paulsen", "--epsilon-floor", "-1e-9"],
        ["paulsen", "--epsilon-floor", "nan"],
        ["minors", "--tol", "-1"],
        ["paulsen", "--seed", "-3"],
    ],
)
def test_numeric_flags_out_of_range(tmp_path, capsys, argv):
    # A random member: d = 2, three single-column blocks, uniform weights.
    path = tmp_path / "member.json"
    frame = random_frame(2, [1, 1, 1], np.random.default_rng(0))
    write_frame_file(path, frame, WeightVector.uniform(2, 3))
    command, flag, value = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be finite and >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--d", "-2")])
def test_gen_flags_out_of_range(capsys, flag, value):
    argv = {"--d": "2", "--cols": "1,1,1", "--seed": "0", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["gen"] + [f"{k}={v}" for k, v in argv.items()])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be finite and >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("command", ["gen", "solve-rif", "paulsen"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_out_write_error(tmp_path, capsys, command, target):
    # A missing directory, or a directory, as --out exits 2 with a message.
    # The input is an equal-norm Parseval frame with uniform weights.
    path = tmp_path / "tight.json"
    r = 2.0**-0.5
    frame = MatrixFrame(2, ([r, 0.0], [0.0, r], [0.5, 0.5], [0.5, -0.5]))
    write_frame_file(path, frame, WeightVector.uniform(2, 4))
    argv = ["gen", "--d", "2", "--cols", "1,1,1"] if command == "gen" else [command, str(path)]
    out = tmp_path / target
    code, _, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_numeric_flags_at_zero(tmp_path, capsys):
    path, _ = write_mixed(tmp_path)
    code, out, _ = run_cli(
        ["solve-rif", str(path), "--grad-tol", "0", "--max-iters", "0", "--tol", "0"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "max_iters"
    assert report["iterations"] == 0


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


@pytest.mark.parametrize("d", [8, 16])
def test_gen_nearly_pmf_many_blocks(tmp_path, capsys, d):
    out_path = tmp_path / "near.json"
    code, _, err = run_cli(
        ["gen", "--d", str(d), "--cols", ",".join(["1"] * 256), "--kind", "nearly-pmf",
         "--seed", "1", "--out", str(out_path)],
        capsys,
    )
    assert code == 0, err
    frame, _ = read_frame_file(out_path)
    assert frame.block_cols == (1,) * 256
    assert 0.0 < nearness(frame).epsilon < 0.05


def test_gen_infeasible_shape(capsys):
    code, out, err = run_cli(
        ["gen", "--d", "4", "--cols", "1,3", "--kind", "equal-norm-pmf"], capsys
    )
    assert code == 2
    assert out == ""
    assert "no equal-norm Parseval frame" in err
    assert "block subsets ((0,),)" in err


@pytest.mark.parametrize("cols", [",1,,1,2,", "1,,2", "1,x", "", "1,0", "-1", "1, 2"])
def test_gen_malformed_cols(capsys, cols):
    code, out, err = run_cli(["gen", "--d", "2", f"--cols={cols}"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --cols must be a comma list of positive integers\n"


def test_gen_to_stdout(tmp_path, capsys):
    argv = ["gen", "--d", "2", "--cols", "1,2", "--seed", "7", "--weights", "uniform"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    out_path = tmp_path / "gen.json"
    code, _, _ = run_cli([*argv, "--out", str(out_path)], capsys)
    assert code == 0
    printed, printed_weights = payload_to_frame(json.loads(out))
    written, written_weights = read_frame_file(out_path)
    assert printed == written
    assert printed_weights.weights == written_weights.weights


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        run_cli(
            ["gen", "--d", "2", "--cols", "1,2", "--seed", "11", "--out", str(target)],
            capsys,
        )
    assert a.read_bytes() == b.read_bytes()


def test_reports_byte_identical(tmp_path, capsys, tight_four_frame):
    path = tmp_path / "tight.json"
    write_frame_file(path, tight_four_frame, WeightVector.uniform(2, 4))
    cmd = [sys.executable, "-m", "frameiso", "solve-rif", str(path)]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    # main called in-process, on the parser earlier calls built, prints
    # what a fresh interpreter prints.
    for command in ("check", "solve-rif", "paulsen"):
        argv = [command, str(path)]
        fresh = subprocess.run([sys.executable, "-m", "frameiso", *argv],
                               capture_output=True, check=True)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.encode() == fresh.stdout


def test_parser_reuse_carries_no_state(tmp_path, capsys, tight_four_frame):
    path = tmp_path / "tight.json"
    write_frame_file(path, tight_four_frame)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = run_cli(["paulsen", str(path), "--human", "--out", str(a)], capsys)
    assert code == 0
    code, out, _ = run_cli(["paulsen", str(path), "--out", str(b)], capsys)
    assert code == 0
    assert all(isinstance(v, float) for v in json.loads(a.read_text())["blocks"][0]["data"])
    assert all(v.startswith(("0x", "-0x"))
               for v in json.loads(b.read_text())["blocks"][0]["data"])
    flags = json.loads(out)["flags"]
    assert flags["human"] is False
    assert flags["out"] == str(b)
    fresh = subprocess.run(
        [sys.executable, "-m", "frameiso", "paulsen", str(path), "--out", str(b)],
        capture_output=True, check=True,
    )
    assert out.encode() == fresh.stdout


@pytest.mark.parametrize(
    "argv, tol",
    [
        (["check", "f.json"], DEFAULT_TOL),
        (["solve-rif", "f.json"], DEFAULT_TOL),
        (["paulsen", "f.json"], DEFAULT_TOL),
        (["minors", "f.json"], 0.0),
        (["gen", "--d", "2", "--cols", "1"], None),
    ],
)
def test_parsed_defaults(argv, tol):
    # Each subcommand's own defaults: minors enumerates with tol 0 while
    # the other file commands use DEFAULT_TOL.
    args = build_parser().parse_args(argv)
    assert getattr(args, "tol", None) == tol
    assert args.human is False
    if argv[0] in ("solve-rif", "paulsen"):
        assert args.grad_tol is None
        assert args.max_iters == 100_000


def test_import_builds_no_parser():
    probe = "import frameiso.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "0\n"


FRAME_FILE_HEX = (
    b'{\n  "schema_version": 1,\n  "d": 2,\n  "blocks": [\n    {\n      "cols": 2,\n'
    b'      "data": [\n        "0x1.0000000000000p+0",\n        "0x1.0000000000000p-1",\n'
    b'        "0x0.0p+0",\n        "-0x1.2000000000000p+1"\n      ]\n    },\n    {\n'
    b'      "cols": 1,\n      "data": [\n        "0x1.999999999999ap-4",\n'
    b'        "0x1.8000000000000p+1"\n      ]\n    }\n  ],\n  "weights": [\n    {\n'
    b'      "num": 3,\n      "den": 2\n    },\n    {\n      "num": 1,\n'
    b'      "den": 2\n    }\n  ]\n}\n'
)
FRAME_FILE_HUMAN = (
    b'{\n  "schema_version": 1,\n  "d": 2,\n  "blocks": [\n    {\n      "cols": 2,\n'
    b'      "data": [\n        1.0,\n        0.5,\n        0.0,\n        -2.25\n'
    b'      ]\n    },\n    {\n      "cols": 1,\n      "data": [\n        0.1,\n'
    b'        3.0\n      ]\n    }\n  ],\n  "weights": [\n    {\n      "num": 3,\n'
    b'      "den": 2\n    },\n    {\n      "num": 1,\n      "den": 2\n    }\n  ]\n}\n'
)


def test_frame_file_golden_bytes(tmp_path):
    frame = MatrixFrame(2, ([[1.0, 0.5], [0.0, -2.25]], [0.1, 3.0]))
    weights = WeightVector(("3/2", "1/2"))
    path = tmp_path / "golden.json"
    write_frame_file(path, frame, weights)
    assert path.read_bytes() == FRAME_FILE_HEX
    write_frame_file(path, frame, weights, human=True)
    assert path.read_bytes() == FRAME_FILE_HUMAN


def test_failed_encode_keeps_existing_file(tmp_path):
    path, frame = write_mixed(tmp_path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_frame_file(path, frame, weights=object())
    assert path.read_bytes() == before
