"""Command-line front end.

Subcommands wrap the pipeline stages: ``check`` runs every predicate on
a frame file, ``solve-rif`` minimises the scaling objective and reports
the transformer, ``paulsen`` runs the rounding pipeline, ``minors``
dumps the determinant-expansion terms, and ``gen`` writes seeded random
frames.  Reports are JSON on stdout with a reproducibility header; reals
are hex-floats unless ``--human``.

Exit codes: 0 ok, 2 input or precondition error (including an input too
large for an exact enumeration and a rounding whose isotropy solves all
fail to converge), 3 certificate failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .frames import DEFAULT_TOL, FrameDatum, WeightVector, is_matrix_frame
from .generate import random_equal_norm_parseval, random_frame, random_nearly_parseval
from .io import (encode_report, frame_to_payload, json_text, read_frame_datum, read_frame_file,
                 write_frame_file)
from .objective import enumerate_minors, log_capacity, log_det_potential_grad
from .paulsen import paulsen_round
from .polytope import orbit_polytope_report
from .quiver import (
    is_equal_norm_parseval,
    is_parseval,
    is_radial_isotropic,
    nearness,
    radial_isotropy_residual,
)
from .solver import (
    STATUS_CONVERGED,
    SolverConfig,
    minimize,
    to_radial_isotropic,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3


def _header(args: argparse.Namespace) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    return {"tool": "frameiso", "version": __version__, "command": args.command, "flags": flags}


def _write_json(obj):
    """One JSON document on stdout, encoded whole and written at once."""
    sys.stdout.write(json_text(obj))


def _emit(report: dict, human: bool):
    _write_json(encode_report(report, human))


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        grad_tol=args.grad_tol,
        max_iters=args.max_iters,
        rank_tol=args.tol,
    )


def _nonnegative(kind):
    """An argparse ``type`` that parses with ``kind`` and accepts only
    finite values >= 0; anything else exits 2 with argparse's message."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
        return value

    # argparse names the type in its "invalid float value" message.
    parse.__name__ = kind.__name__
    return parse


def _add_input_flags(parser: argparse.ArgumentParser, tol: float = DEFAULT_TOL):
    parser.add_argument("path")
    parser.add_argument("--tol", type=_nonnegative(float), default=tol)
    parser.add_argument("--human", action="store_true")


def _add_solver_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--grad-tol", type=_nonnegative(float), default=None,
                        help="gradient norm tolerance (default 1e-9 * d)")
    parser.add_argument("--max-iters", type=_nonnegative(int), default=100_000)


def cmd_check(args) -> int:
    frame, weights = read_frame_file(args.path)
    report = _header(args)
    report["shape"] = {"d": frame.d, "block_cols": list(frame.block_cols)}
    report["mf"] = is_matrix_frame(frame, args.tol)
    near = nearness(frame)
    report["epsilon"] = near.epsilon
    report["epsilon_operator"] = near.epsilon_operator
    report["epsilon_norms"] = near.epsilon_norms
    report["equal_norm_pmf"] = is_equal_norm_parseval(frame, args.tol)

    if weights is not None:
        datum = FrameDatum(frame, weights)
        poly = orbit_polytope_report(datum, args.tol)
        report["pmf"] = is_parseval(datum, args.tol)
        try:
            report["rif"] = is_radial_isotropic(datum, args.tol)
        except ValueError as exc:
            report["rif"] = None
            report["rif_note"] = str(exc)
        report["polytope"] = poly.member
        report["sum_check"] = poly.sum_check
        report["tight_subsets"] = [list(s) for s in poly.tight_subsets]
        report["violating_subsets"] = [list(s) for s in poly.violating_subsets]
        report["relint"] = poly.relative_interior
    else:
        report["pmf"] = None
        report["rif"] = None
        report["polytope"] = None
        report["relint"] = None
    _emit(report, args.human)
    return EXIT_OK


def cmd_solve_rif(args) -> int:
    datum = read_frame_datum(args.path)
    config = _solver_config(args)
    result = minimize(datum, config)
    report = _header(args)
    report["status"] = result.status
    report["iterations"] = result.iterations
    report["grad_norm"] = result.grad_norm
    report["objective_value"] = result.objective_value
    if result.status == STATUS_CONVERGED:
        report["t_star"] = result.t_star
        report["transformer"] = result.transformer.reshape(-1)
        report["extremisers"] = result.extremisers
        report["log_capacity"] = log_capacity(datum, result.objective_value)
        transformed = to_radial_isotropic(datum, result)
        report["rif_residual"] = radial_isotropy_residual(
            FrameDatum(transformed, datum.weights)
        )
        grad = log_det_potential_grad(datum.frame, result.t_star)
        residual = grad - datum.weights.as_floats()
        report["variety_residual_max"] = float(np.max(np.abs(residual)))
        if args.out:
            write_frame_file(args.out, transformed, datum.weights, args.human)
    else:
        outside = result.polytope is not None and not result.polytope.member
        report["log_capacity"] = -math.inf if outside else None
        if result.polytope is not None:
            report["violating_subsets"] = [
                list(s) for s in result.polytope.violating_subsets
            ]
    _emit(report, args.human)
    return EXIT_OK


def cmd_paulsen(args) -> int:
    frame, _ = read_frame_file(args.path)
    config = _solver_config(args)
    outcome = paulsen_round(
        frame,
        config,
        rng_seed=args.seed,
        epsilon_floor=args.epsilon_floor,
    )
    report = _header(args)
    report["input_epsilon"] = outcome.input_epsilon
    report["epsilon_used"] = outcome.epsilon_used
    report["gamma"] = outcome.gamma
    report["distances"] = dict(outcome.distances)
    report["bound"] = outcome.bound
    report["certified"] = outcome.certified
    report["majorization_ok"] = outcome.majorization_ok
    report["singular_values"] = outcome.singular_values
    report["pipeline_tol"] = outcome.pipeline_tol
    report["solver"] = {
        "status": outcome.solver.status,
        "iterations": outcome.solver.iterations,
        "grad_norm": outcome.solver.grad_norm,
    }
    report["output_equal_norm_pmf"] = outcome.output_equal_norm_pmf
    if args.out:
        write_frame_file(args.out, outcome.output, human=args.human)
    _emit(report, args.human)
    return EXIT_OK if outcome.certified else EXIT_CERTIFICATE


def cmd_minors(args) -> int:
    frame, _ = read_frame_file(args.path)
    terms = enumerate_minors(frame, tol=args.tol)
    report = _header(args)
    report["count"] = len(terms)
    report["total"] = float(sum(t.value for t in terms))
    report["terms"] = [
        {
            "support": list(t.support),
            "column_sets": [list(c) for c in t.column_sets],
            "value": t.value,
            "negligible": t.negligible,
        }
        for t in terms
    ]
    _emit(report, args.human)
    return EXIT_OK


def cmd_gen(args) -> int:
    items = args.cols.split(",")
    if not all(item.isdecimal() and int(item) >= 1 for item in items):
        print("error: --cols must be a comma list of positive integers", file=sys.stderr)
        return EXIT_INPUT
    cols = [int(item) for item in items]
    rng = np.random.default_rng(args.seed)
    if args.kind == "gaussian":
        frame = random_frame(args.d, cols, rng)
    elif args.kind == "equal-norm-pmf":
        frame = random_equal_norm_parseval(args.d, cols, rng)
    else:
        frame = random_nearly_parseval(args.d, cols, args.eps, rng)
    weights = None
    if args.weights == "uniform":
        weights = WeightVector.uniform(args.d, len(cols))
    if args.out:
        write_frame_file(args.out, frame, weights, args.human)
    else:
        _write_json(frame_to_payload(frame, weights, args.human))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``frameiso`` argument parser, built on the first call.

    Every later call in the process returns the same parser, so
    ``main`` pays for building it once; callers must not modify it.
    Parsing keeps no state on the parser: each ``parse_args`` returns a
    fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="frameiso",
        description="Radial isotropy and Paulsen rounding for matrix frames",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every predicate on a frame file")
    _add_input_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve-rif", help="minimise and report the transformer")
    _add_input_flags(p_solve)
    p_solve.add_argument("--out", default=None, help="write the transformed frame here")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve_rif)

    p_paulsen = sub.add_parser("paulsen", help="round to an equal-norm Parseval frame")
    _add_input_flags(p_paulsen)
    p_paulsen.add_argument("--seed", type=_nonnegative(int), default=0)
    p_paulsen.add_argument("--epsilon-floor", type=_nonnegative(float), default=1e-9)
    p_paulsen.add_argument("--out", default=None, help="write the output frame here")
    _add_solver_flags(p_paulsen)
    p_paulsen.set_defaults(func=cmd_paulsen)

    p_minors = sub.add_parser("minors", help="dump the determinant-expansion terms")
    _add_input_flags(p_minors, tol=0.0)
    p_minors.set_defaults(func=cmd_minors)

    p_gen = sub.add_parser("gen", help="write a seeded random frame file")
    p_gen.add_argument("--d", type=_nonnegative(int), required=True)
    p_gen.add_argument("--cols", required=True, help="comma list of block column counts")
    p_gen.add_argument(
        "--kind",
        choices=["gaussian", "equal-norm-pmf", "nearly-pmf"],
        default="gaussian",
    )
    p_gen.add_argument("--eps", type=float, default=0.05, help="nearness for nearly-pmf")
    p_gen.add_argument("--weights", choices=["none", "uniform"], default="none")
    p_gen.add_argument("--seed", type=_nonnegative(int), default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--human", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``); returns the exit code.

    This is the one place a library error becomes exit 2: a ``ValueError``
    (bad input) or a ``RuntimeError`` (a size guard or a solve that gave
    up) is printed to stderr as ``error: ...``.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
