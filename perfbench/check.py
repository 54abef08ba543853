"""Independent correctness checks for benchmark outputs.

Everything here is written against plain numpy and the JSON frame-file
schema, never against frameiso's own predicates, so a change that breaks
a predicate together with the code it guards still shows as a failure.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Spectral-norm tolerance on the radial-isotropy and Parseval residuals of
# a solver output.  The solver stops at a gradient norm of 1e-9 * d and
# the rounding pipeline certifies at 10x that, so 1e-6 leaves two orders
# of magnitude of slack for the conversion between the two measures.
RESIDUAL_TOL = 1e-6

# Relative singular-value cut-off for span ranks (frameiso's DEFAULT_TOL).
RANK_TOL = 1e-9

# The rounding pipeline floors the measured nearness at this value before
# it forms the distance bound 26 * eps * d^2 (paulsen_round's default).
EPSILON_FLOOR = 1e-9


def _deviation_from_identity(op: np.ndarray) -> float:
    eigvals = np.linalg.eigvalsh((op + op.T) / 2.0)
    return float(np.max(np.abs(eigvals - 1.0)))


def radial_residual(blocks, weights) -> float:
    """|sum_i c_i X_i X_i^T / |X_i|_F^2 - I| in spectral norm."""
    d = blocks[0].shape[0]
    op = np.zeros((d, d))
    for c, x in zip(weights, blocks):
        op += float(c) * (x @ x.T) / float(np.sum(x * x))
    return _deviation_from_identity(op)


def parseval_residual(blocks) -> float:
    """Larger of |sum_i X_i X_i^T - I| and max_i ||X_i|_F^2 - d/n|."""
    d, n = blocks[0].shape[0], len(blocks)
    op = sum(x @ x.T for x in blocks)
    norm_dev = max(abs(float(np.sum(x * x)) - d / n) for x in blocks)
    return max(_deviation_from_identity(op), norm_dev)


def nearness(blocks) -> float:
    """Smallest eps with (1-eps) I <= S <= (1+eps) I and every block norm
    squared within a factor 1 -/+ eps of d/n."""
    d, n = blocks[0].shape[0], len(blocks)
    eigvals = np.linalg.eigvalsh(sum(x @ x.T for x in blocks))
    eps_op = max(1.0 - float(eigvals[0]), float(eigvals[-1]) - 1.0, 0.0)
    eps_norms = max(abs(float(np.sum(x * x)) / (d / n) - 1.0) for x in blocks)
    return max(eps_op, eps_norms)


def dist_squared(blocks_a, blocks_b) -> float:
    return float(sum(np.sum((a - b) ** 2) for a, b in zip(blocks_a, blocks_b)))


def span_rank(blocks) -> int:
    """Numerical rank of the pooled columns of ``blocks``."""
    svals = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(svals > RANK_TOL * svals[0]))


def rounding_error(blocks_in, blocks_out) -> str | None:
    """Why a rounding output fails its guarantee, or None when it holds.

    The output must be an equal-norm Parseval frame and lie within the
    certified squared distance 26 * eps * d^2 of the input, with eps the
    input's nearness measured here.
    """
    d = blocks_in[0].shape[0]
    residual = parseval_residual(blocks_out)
    if not residual <= RESIDUAL_TOL:
        return f"output Parseval residual {residual:.3e} > {RESIDUAL_TOL:g}"
    eps = max(nearness(blocks_in), EPSILON_FLOOR)
    dist = dist_squared(blocks_in, blocks_out)
    bound = 26.0 * eps * d * d
    if not dist <= bound * (1.0 + 1e-9):
        return f"dist^2 {dist:.3e} exceeds 26*eps*d^2 = {bound:.3e}"
    return None


def frame_payload(blocks, weights=None) -> dict:
    """Schema-1 frame file content with hex-float reals."""
    payload = {
        "schema_version": 1,
        "d": int(blocks[0].shape[0]),
        "blocks": [
            {"cols": int(x.shape[1]), "data": [float(v).hex() for v in x.reshape(-1)]}
            for x in blocks
        ],
    }
    if weights is not None:
        payload["weights"] = [
            {"num": w.numerator, "den": w.denominator} for w in weights
        ]
    return payload


def _real(value) -> float:
    if isinstance(value, str):
        return float.fromhex(value) if "x" in value.lower() else float(value)
    return float(value)


def read_frame(path) -> tuple:
    """(blocks, weights-or-None) from a schema-1 frame file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    d = payload["d"]
    blocks = [
        np.array([_real(v) for v in entry["data"]]).reshape(d, entry["cols"])
        for entry in payload["blocks"]
    ]
    weights = None
    if payload.get("weights") is not None:
        weights = [Fraction(w["num"], w["den"]) for w in payload["weights"]]
    return blocks, weights
