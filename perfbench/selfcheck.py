#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py --seed 3 [--workload NAME ...]

For each workload, runs ``run.py --trace 1`` twice with the same seed and
requires identical input digests and identical exact counts: calls,
solver iterations, minors, minor terms and bytes written.  It also checks
that both kinds of run report exactly the metrics BENCHMARK.json lists,
with the same units.  Exits 0 when everything agrees, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def _run(workload: str, seed: int, trace: int) -> tuple:
    """(sha256 of the inputs, result object) of one short run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.rpartition("sha256=")[2] for line in lines
                  if line.startswith("inputs "))
    return digest, json.loads(lines[-1])


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if per_layer != {name: unit for name, unit, _ in tracing.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    for workload in args.workload or names:
        digest_a, first = _run(workload, args.seed, 1)
        digest_b, second = _run(workload, args.seed, 1)
        if digest_a != digest_b:
            problems.append(f"{workload}: input digests differ")
        for name in tracing.EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        if _units(first) != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        _, plain = _run(workload, args.seed, 0)
        if _units(plain) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        failed = first["failed"] + second["failed"] + plain["failed"]
        if failed:
            problems.append(f"{workload}: {failed} failed operations")
        print(f"{workload}: sha256={digest_a}, {len(tracing.EXACT)} exact counts compared")

    for problem in problems:
        print(f"MISMATCH {problem}")
    print("determinism self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
