#!/usr/bin/env python3
"""Before/after benchmark of a change: writes BENCH_<n>.json at the repo root.

    python3 scripts/bench.py --number 7 --base HEAD~1 [--runs 10] [--seed 1]

Runs ``perfbench/run.py`` on a checkout of ``--base`` and on the change
(the working tree), alternating which side runs first from one run to
the next, so that a drift of the machine's speed hits both sides alike.
For each workload of BENCHMARK.json it records the median and the
interquartile range of the five end-to-end metrics over ``--runs``
untraced runs per side, the failed operations, and the exact counts of
one traced run per side: orbit-polytope enumerations, SVD and eigh
calls, solver iterations and eigh calls per iteration, frame-operator
builds, nearness measurements, CLI commands run and bytes the CLI
wrote, so both sides can be seen to have done the same work.  The base
checkout (``git archive``) and a copy of the working tree are made side
by side in a temporary directory that is removed afterwards, so edits
made while the runs go on do not reach them, and paths echoed in CLI
reports have one length on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
# Counts come from the first traced pass, so a short traced run suffices.
TRACE_SECONDS = 5.0
TRACED_COUNTS = (
    "polytope.in_orbit_polytope.calls",
    "linalg.svd.calls",
    "solver.iterations",
    "linalg.eigh.calls",
    "solver.eigh_per_iteration",
    "frames.frame_operator.calls",
    "quiver.nearness.calls",
    "cli.main.calls",
    "io.bytes_out",
)


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--base", required=True, help="git revision measured as 'before'")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per side")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    args.workloads = [w["name"] for w in spec["workloads"]]
    return args


def _revision(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _checkout(rev: str, dest: Path) -> Path:
    """The files of ``rev`` extracted into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _copy_working_tree(dest: Path) -> Path:
    """The working tree's tracked and unignored files copied into ``dest``."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py in ``tree``: its result line plus the env line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((line[4:] for line in lines if line.startswith("env ")), "")
    return result


def _spread(values: list) -> dict:
    """Median, interquartile range and the values themselves."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def _side(results: list, traced: dict) -> dict:
    metrics = {}
    for name in END_TO_END:
        unit = results[0]["metrics"][name]["unit"]
        metrics[name] = dict(_spread([r["metrics"][name]["value"] for r in results]),
                             unit=unit)
    return {
        "metrics": metrics,
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "traced": {name: traced["metrics"][name]["value"] for name in TRACED_COUNTS},
        "traced_failed": traced["failed"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    base_rev = _revision(args.base)
    with tempfile.TemporaryDirectory(prefix="frameiso-bench-") as workdir:
        # Names of one length: the CLI echoes input and output paths in
        # its reports, and io.bytes_out counts them.
        trees = {
            "base": _checkout(base_rev, Path(workdir) / "base"),
            "change": _copy_working_tree(Path(workdir) / "work"),
        }
        report = _measure(args, base_rev, trees)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def _measure(args, base_rev: str, trees: dict) -> dict:
    """Alternating runs of every workload on both trees, summarised."""
    report = {
        "number": args.number,
        "base": base_rev,
        "change": "working tree",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": {},
    }
    for workload in args.workloads:
        results = {"base": [], "change": []}
        for run in range(args.runs):
            order = ("base", "change") if run % 2 == 0 else ("change", "base")
            for side in order:
                result = _run(trees[side], workload, args.seed, args.seconds, 0)
                results[side].append(result)
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} run {run} {side}: ops_per_s {ops:.4g}", flush=True)
        entry = {}
        for side in ("base", "change"):
            traced = _run(trees[side], workload, args.seed, TRACE_SECONDS, 1)
            entry[side] = _side(results[side], traced)
        report["env"] = results["change"][-1]["env"]
        entry["ratio"] = {
            name: entry["change"]["metrics"][name]["median"]
            / entry["base"]["metrics"][name]["median"]
            for name in END_TO_END
        }
        report["workloads"][workload] = entry
        print(f"{workload}: change/base medians "
              + " ".join(f"{k}={v:.3f}" for k, v in entry["ratio"].items()), flush=True)
    return report


if __name__ == "__main__":
    sys.exit(main())
