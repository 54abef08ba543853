"""Smoke tests: the scripts under scripts/ run against the package."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_paulsen_sweep_script():
    proc = run_script("scripts/paulsen_sweep.py", "--runs", "5", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "certified:       5/5" in proc.stdout


def test_gradient_check_script():
    proc = run_script(
        "scripts/gradient_check.py", "--frames", "2", "--points", "2", "--seed", "2"
    )
    assert proc.returncode == 0, proc.stderr
    assert "frames checked:                 2" in proc.stdout


def test_code_lines_script():
    proc = run_script("scripts/code_lines.py")
    assert proc.returncode == 0, proc.stderr
    assert "solver.py" in proc.stdout
    assert proc.stdout.splitlines()[-1].split()[0] == "total"


def test_output_digest_script():
    proc = run_script("scripts/output_digest.py", "--seed", "1", "--workload", "paulsen-round")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"paulsen-round +[0-9a-f]{64}  ops=\d+ failed=0\n", proc.stdout)


def test_output_digest_hashes_frames_as_before():
    # A frame is hashed in the form it had as a dataclass of d and blocks,
    # so digests compare across commits.
    proc = run_script("-c", (
        "import json, sys; sys.path.insert(0, 'scripts');"
        " from output_digest import canonical; from frameiso import MatrixFrame;"
        " print(json.dumps(canonical(MatrixFrame(2, ([1.0, -0.0], [[0.5, 2.0], [3.0, 4.0]])))))"
    ))
    assert proc.returncode == 0, proc.stderr
    single = np.array([[1.0], [-0.0]]).tobytes().hex()
    double = np.array([[0.5, 2.0], [3.0, 4.0]]).tobytes().hex()
    assert json.loads(proc.stdout) == [
        "MatrixFrame",
        {"d": 2, "blocks": [["float64", [2, 1], single], ["float64", [2, 2], double]]},
    ]


def test_readme_quick_start():
    # The README's one python block runs as written against the package.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_script("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "True"
    assert float(lines[1]) <= 1e-7
    assert lines[2].startswith("True ")


def test_paulsen_sweep_above_d_six():
    # n is drawn up to 4d for d >= 7, so d >= 7 leaves room for n >= d + 2.
    proc = run_script(
        "scripts/paulsen_sweep.py", "--runs", "2", "--seed", "1", "--d-min", "7",
        "--d-max", "7",
    )
    assert proc.returncode == 0, proc.stderr
    assert "certified:       2/2" in proc.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--runs", "0"],
        ["--d-min", "4", "--d-max", "3"],
        ["--d-min", "0"],
        ["--eps-min", "0"],
        ["--eps-max", "0.3"],
        ["--eps-min", "0.2", "--eps-max", "0.1"],
        ["--eps-min", "nan"],
    ],
)
def test_paulsen_sweep_rejects_flags(flags):
    proc = run_script("scripts/paulsen_sweep.py", "--runs", "1", *flags)
    assert proc.returncode == 2
    assert "paulsen_sweep.py: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
