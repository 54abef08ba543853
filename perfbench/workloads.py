"""The benchmark's workloads: seeded inputs, one operation each, and its check.

Every workload draws its inputs on a fixed grid of shapes.  The seed picks
the matrix entries (and the block layout and nearness within a shape),
never the shapes themselves, so the mix of cheap and expensive operations
is the same for every seed.  The pool is ordered round by round; inside a
round the shapes alternate between cheap and expensive, so any stretch of
a run sees a balanced mix.

Why each workload is in the set is recorded in BENCHMARK.json and
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import frameiso
import frameiso.cli
from frameiso import generate

from . import check

# Cost guard.  The orbit-polytope certificate enumerates 2^n subsets and
# the genericity test stacks C(N, d) determinants of d x d matrices; an
# input above either cap is refused before anything runs on it.
SUBSET_CAP = 2**12
MINOR_CAP = 50_000

EPS_RANGE = (1e-3, 0.29)


class InputTooLarge(ValueError):
    """A generated input would start an exponential loop past the caps."""


@dataclass
class Item:
    index: int
    d: int
    frame: frameiso.MatrixFrame
    weights: Optional[tuple] = None  # Fractions, when the input is weighted
    kind: str = "member"
    violating: Optional[tuple] = None  # generator's known violating subset
    eps: Optional[float] = None  # requested nearness of a nearly-Parseval frame
    datum: Optional[frameiso.FrameDatum] = None
    paths: dict = field(default_factory=dict)

    @property
    def blocks(self) -> tuple:
        return self.frame.blocks


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # keeps the seed streams of different workloads apart
    shapes: tuple  # (d, n) pairs
    rounds: int  # pool size is rounds * len(shapes)
    trace_rounds: int  # rounds in one traced pass
    costs: tuple  # exponential enumerations an operation may start
    build: Callable
    run: Callable
    check: Callable
    reads_files: bool = False  # inputs go through frame files on disk


def _interleave(shapes) -> tuple:
    """Cheapest, dearest, second cheapest, second dearest, ...

    Shapes are ranked by (n, d): every layer's cost grows with the
    number of blocks first.
    """
    shapes = sorted(shapes, key=lambda shape: (shape[1], shape[0]))
    order = []
    lo, hi = 0, len(shapes) - 1
    while lo <= hi:
        order.append(shapes[lo])
        if lo != hi:
            order.append(shapes[hi])
        lo, hi = lo + 1, hi - 1
    return tuple(order)


def _block_cols(n: int, rng) -> list:
    """n blocks, n // 2 of them with two columns, placed at random."""
    cols = [1] * n
    for i in rng.permutation(n)[: n // 2]:
        cols[int(i)] = 2
    return cols


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _guard(workload: Workload, item: Item):
    n, total, d = item.frame.n, item.frame.total_cols, item.d
    if "subsets" in workload.costs and 2**n > SUBSET_CAP:
        raise InputTooLarge(f"item {item.index}: 2^{n} subsets > cap {SUBSET_CAP}")
    if "minors" in workload.costs and math.comb(total, d) > MINOR_CAP:
        raise InputTooLarge(
            f"item {item.index}: C({total},{d}) minors > cap {MINOR_CAP}"
        )


def _uniform(d: int, n: int) -> tuple:
    return tuple(Fraction(d, n) for _ in range(n))


# --- precheck-solve -------------------------------------------------------


def _build_precheck(rng, d, n, index, position, rnd):
    # One shape in four per round is degenerate, each shape in turn.
    if (position + rnd) % 4 == 3:
        frame, violating = generate.random_degenerate_frame(d, n, rng)
        kind = "degenerate"
    else:
        frame = generate.random_frame(d, _block_cols(n, rng), rng)
        violating, kind = None, "member"
    weights = _uniform(d, n)
    return Item(index, d, frame, weights, kind, violating,
                datum=frameiso.FrameDatum(frame, frameiso.WeightVector(weights)))


def _run_precheck(item, tracer):
    return frameiso.minimize(item.datum)


def _check_solve(item, result):
    if item.kind == "degenerate":
        if result.status != "not_semistable":
            return f"status {result.status}, expected not_semistable"
        reported = result.polytope.violating_subsets if result.polytope else ()
        if item.violating not in reported:
            return f"known violating subset {item.violating} not reported"
        weight = sum((item.weights[i] for i in item.violating), Fraction(0))
        rank = check.span_rank([item.blocks[i] for i in item.violating])
        if not weight > rank:
            return f"subset weight {weight} <= span rank {rank}: not violating"
        return None
    if result.status != "converged":
        return f"status {result.status}, expected converged"
    transformed = [result.transformer @ x for x in item.blocks]
    residual = check.radial_residual(transformed, item.weights)
    if not residual <= check.RESIDUAL_TOL:
        return f"radial residual {residual:.3e} > {check.RESIDUAL_TOL:g}"
    return None


# --- large-solve ----------------------------------------------------------

_NO_PRECHECK = frameiso.SolverConfig(check_polytope=False)


def _build_large(rng, d, n, index, position, rnd):
    frame = generate.random_frame(d, _block_cols(n, rng), rng)
    weights = _uniform(d, n)
    return Item(index, d, frame, weights,
                datum=frameiso.FrameDatum(frame, frameiso.WeightVector(weights)))


def _run_large(item, tracer):
    return frameiso.minimize(item.datum, _NO_PRECHECK)


# --- paulsen-round --------------------------------------------------------


def _build_nearly(rng, d, n, index, position, rnd):
    eps = _log_uniform(rng, *EPS_RANGE)
    frame = generate.random_nearly_parseval(d, _block_cols(n, rng), eps, rng)
    return Item(index, d, frame, _uniform(d, n), kind="nearly", eps=eps)


def _run_paulsen(item, tracer):
    return frameiso.paulsen_round(item.frame, rng_seed=item.index)


def _check_paulsen(item, report):
    if not report.certified:
        return "rounding not certified"
    return check.rounding_error(item.blocks, report.output.blocks)


# --- cli-roundtrip --------------------------------------------------------


def _run_cli(item, tracer):
    """check, solve-rif --out, paulsen --out on one input file."""
    paths = item.paths
    argvs = (
        ["check", paths["in"]],
        ["solve-rif", paths["in"], "--out", paths["rif"]],
        ["paulsen", paths["in"], "--seed", str(item.index), "--out", paths["rounded"]],
    )
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = frameiso.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs.append((argv[0], code, out.getvalue(), err.getvalue()))
    if tracer is not None:
        # Frame files are counted where write_frame_file returns.
        tracer.extra["io.bytes_out"] += sum(len(o[2].encode()) for o in outputs)
    return outputs


def _check_cli(item, outputs):
    try:
        return _cli_error(item, outputs)
    finally:
        # A later pass must not find this pass's output files.
        for key in ("rif", "rounded"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(item.paths[key])


def _cli_error(item, outputs):
    reports = {}
    for command, code, stdout, stderr in outputs:
        if code != 0:
            return f"{command}: exit code {code}: {stderr.strip()[:200]}"
        try:
            reports[command] = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{command}: stdout is not JSON ({exc})"
    reported_eps = float.fromhex(reports["check"]["epsilon"])
    own_eps = check.nearness(item.blocks)
    if not abs(reported_eps - own_eps) <= 1e-9 * max(1.0, own_eps):
        return f"check: epsilon {reported_eps!r} differs from measured {own_eps!r}"
    if reports["solve-rif"]["status"] != "converged":
        return f"solve-rif: status {reports['solve-rif']['status']}"
    blocks, weights = check.read_frame(item.paths["rif"])
    residual = check.radial_residual(blocks, weights)
    if not residual <= check.RESIDUAL_TOL:
        return f"solve-rif --out: radial residual {residual:.3e}"
    if reports["paulsen"]["certified"] is not True:
        return "paulsen: not certified"
    rounded, _ = check.read_frame(item.paths["rounded"])
    error = check.rounding_error(item.blocks, rounded)
    return f"paulsen --out: {error}" if error else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="precheck-solve",
            tag=1,
            shapes=tuple((d, n) for n in range(8, 12) for d in range(3, 7)),
            rounds=20,
            trace_rounds=4,
            costs=("subsets",),
            build=_build_precheck,
            run=_run_precheck,
            check=_check_solve,
        ),
        Workload(
            name="large-solve",
            tag=2,
            shapes=tuple(
                (d, 2 * d + k * d // 4) for d in (16, 24, 32) for k in range(5)
            ),
            rounds=12,
            trace_rounds=2,
            costs=(),
            build=_build_large,
            run=_run_large,
            check=_check_solve,
        ),
        Workload(
            name="paulsen-round",
            tag=3,
            shapes=tuple((d, n) for n in range(5, 11) for d in range(3, 7)
                         if n >= d + 2),
            rounds=20,
            trace_rounds=2,
            costs=("subsets", "minors"),
            build=_build_nearly,
            run=_run_paulsen,
            check=_check_paulsen,
        ),
        Workload(
            name="cli-roundtrip",
            tag=4,
            shapes=tuple((d, n) for n in range(3, 9) for d in range(2, 5)
                         if n >= d + 1),
            rounds=12,
            trace_rounds=2,
            costs=("subsets", "minors"),
            build=_build_nearly,
            run=_run_cli,
            check=_check_cli,
            reads_files=True,
        ),
    )
}


def build_pool(workload: Workload, seed: int, workdir: str) -> tuple:
    """Generate the workload's inputs from ``seed``.

    Returns (items, sha256 hex digest of the inputs).  Frame files are
    written for the CLI workload only, since it is the only one that
    reads them.
    """
    order = _interleave(workload.shapes)
    if workload.reads_files:
        os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    items = []
    for rnd in range(workload.rounds):
        for position, (d, n) in enumerate(order):
            index = len(items)
            rng = np.random.default_rng([seed, workload.tag, index])
            item = workload.build(rng, d, n, index, position, rnd)
            _guard(workload, item)
            payload = check.frame_payload(item.blocks, item.weights)
            text = json.dumps(payload, indent=2) + "\n"
            digest.update(json.dumps(
                [item.kind, item.violating, None if item.eps is None else item.eps.hex()]
            ).encode())
            digest.update(text.encode())
            if workload.reads_files:
                item.paths = {
                    key: os.path.join(workdir, f"{key}-{index}.json")
                    for key in ("in", "rif", "rounded")
                }
                with open(item.paths["in"], "w", encoding="utf-8") as handle:
                    handle.write(text)
            items.append(item)
    return items, digest.hexdigest()
