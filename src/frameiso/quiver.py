"""Frame predicates and their bipartite quiver-representation counterparts.

Parseval / equal-norm / nearly-equal-norm / radial-isotropy checks on
frames, plus the representation-level notions they correspond to:
geometric Brascamp-Lieb data and critical representations for an integer
vertex weight.  A frame embeds as a representation of the bipartite
quiver with one source of dimension d and one 1-dimensional sink per
block, one arrow per column carrying the transposed column.

All matrix-equation predicates measure the deviation in spectral norm,
matching the operator-sandwich semantics of the nearness definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    DEFAULT_TOL,
    FrameDatum,
    MatrixFrame,
    WeightVector,
    _block_norms_sq,
    _weighted_operator,
    frame_operator,
)


def _spectral_deviation_from_identity(mat: np.ndarray) -> float:
    """Largest |eigenvalue - 1| of a symmetric matrix, i.e. |S - I| in
    spectral norm."""
    sym = (mat + mat.T) / 2.0
    eigvals = np.linalg.eigvalsh(sym)
    return float(np.max(np.abs(eigvals - 1.0))) if eigvals.size else 0.0


def parseval_residual(datum: FrameDatum) -> tuple:
    """(operator deviation of sum c_i X_i X_i^T from I, max |norm^2 - 1|)."""
    frame = datum.frame
    op = _weighted_operator(frame, datum.weights.as_floats())
    op_dev = _spectral_deviation_from_identity(op)
    norm_dev = float(np.max(np.abs(_block_norms_sq(frame) - 1.0)))
    return op_dev, norm_dev


def is_parseval(datum: FrameDatum, tol: float = DEFAULT_TOL) -> bool:
    """Weighted Parseval: sum c_i X_i X_i^T = I and unit Frobenius norms."""
    op_dev, norm_dev = parseval_residual(datum)
    return op_dev <= tol and norm_dev <= tol


def equal_norm_residual(frame: MatrixFrame) -> tuple:
    """(operator deviation of sum X_i X_i^T from I, max |norm^2 - d/n|)."""
    op_dev = _spectral_deviation_from_identity(frame_operator(frame))
    target = frame.d / frame.n
    norm_dev = float(np.max(np.abs(_block_norms_sq(frame) - target)))
    return op_dev, norm_dev


def is_equal_norm_parseval(frame: MatrixFrame, tol: float = DEFAULT_TOL) -> bool:
    """Unweighted Parseval with all block norms squared equal to d/n."""
    op_dev, norm_dev = equal_norm_residual(frame)
    return op_dev <= tol and norm_dev <= tol


@dataclass(frozen=True)
class NearnessReport:
    """Smallest multiplicative sandwich constants for a frame.

    ``epsilon_operator`` bounds the frame operator between (1 -/+ eps) I,
    ``epsilon_norms`` bounds every block norm squared between
    (1 -/+ eps) d/n, and ``epsilon`` is the larger of the two.
    """

    epsilon_operator: float
    epsilon_norms: float
    epsilon: float


def nearness(frame: MatrixFrame) -> NearnessReport:
    """Measure how far the frame is from an exact equal-norm Parseval frame."""
    eigvals = np.linalg.eigvalsh(frame_operator(frame))
    eps_op = max(1.0 - float(eigvals[0]), float(eigvals[-1]) - 1.0, 0.0)
    target = frame.d / frame.n
    eps_norms = float(np.max(np.abs(_block_norms_sq(frame) / target - 1.0)))
    return NearnessReport(
        epsilon_operator=eps_op,
        epsilon_norms=eps_norms,
        epsilon=max(eps_op, eps_norms),
    )


def radial_isotropy_residual(datum: FrameDatum) -> float:
    """Spectral deviation of sum c_i X_i X_i^T / |X_i|_F^2 from the identity."""
    frame = datum.frame
    norms_sq = _block_norms_sq(frame)
    if np.any(norms_sq == 0.0):
        raise ValueError("zero block: normalised term undefined")
    op = _weighted_operator(frame, datum.weights.as_floats() / norms_sq)
    return _spectral_deviation_from_identity(op)


def is_radial_isotropic(datum: FrameDatum, tol: float = DEFAULT_TOL) -> bool:
    """Radial isotropy: the norm-weighted operator sum equals the identity."""
    return radial_isotropy_residual(datum) <= tol


@dataclass(frozen=True, eq=False)
class BipartiteQuiverRep:
    """Representation of a bipartite quiver, arrows from sources to sinks.

    ``arrow_maps`` maps a (source j, sink i) pair to the tuple of arrow
    matrices from j to i, each of shape sink_dims[i] x source_dims[j].
    """

    source_dims: tuple
    sink_dims: tuple
    arrow_maps: dict

    def __post_init__(self):
        source_dims = tuple(int(v) for v in self.source_dims)
        sink_dims = tuple(int(v) for v in self.sink_dims)
        if any(v < 1 for v in source_dims + sink_dims):
            raise ValueError("vertex dimensions must be positive")
        maps = {}
        for (j, i), mats in self.arrow_maps.items():
            if not (0 <= j < len(source_dims) and 0 <= i < len(sink_dims)):
                raise ValueError(f"arrow group ({j},{i}) out of range")
            group = []
            for k, mat in enumerate(mats):
                arr = np.array(mat, dtype=float, copy=True)
                expected = (sink_dims[i], source_dims[j])
                if arr.shape != expected:
                    raise ValueError(
                        f"arrow ({j},{i})[{k}]: shape {arr.shape}, expected {expected}"
                    )
                arr.setflags(write=False)
                group.append(arr)
            maps[(j, i)] = tuple(group)
        object.__setattr__(self, "source_dims", source_dims)
        object.__setattr__(self, "sink_dims", sink_dims)
        object.__setattr__(self, "arrow_maps", maps)

    @property
    def num_sources(self) -> int:
        return len(self.source_dims)

    @property
    def num_sinks(self) -> int:
        return len(self.sink_dims)


def frame_to_rep(frame: MatrixFrame) -> BipartiteQuiverRep:
    """Embed a frame: one d-dimensional source, 1-dimensional sinks, one
    arrow per column carrying the transposed column."""
    maps = {}
    for i, block in enumerate(frame.blocks):
        maps[(0, i)] = tuple(
            block[:, k].reshape(1, frame.d) for k in range(block.shape[1])
        )
    return BipartiteQuiverRep(
        source_dims=(frame.d,), sink_dims=(1,) * frame.n, arrow_maps=maps
    )


def induced_sigma(weights: WeightVector) -> tuple:
    """Integer vertex weight induced by rational sink weights.

    The one source gets the least common denominator omega, sink i gets
    -omega * c_i (an integer by construction).
    """
    omega, scaled = weights.scaled()
    return (omega,), tuple(-a for a in scaled)


def is_geometric_bl_datum(
    rep: BipartiteQuiverRep, weights: WeightVector, tol: float = DEFAULT_TOL
) -> bool:
    """Geometric Brascamp-Lieb datum check.

    Source side: sum_i c_i sum_a V(a)^T V(a) = I at every source.
    Sink side: sum over incoming arrows of V(a) V(a)^T = I at every sink.
    """
    if weights.n != rep.num_sinks:
        raise ValueError(f"{weights.n} weights for {rep.num_sinks} sinks")
    c = weights.as_floats()
    for j in range(rep.num_sources):
        acc = np.zeros((rep.source_dims[j], rep.source_dims[j]))
        for i in range(rep.num_sinks):
            for mat in rep.arrow_maps.get((j, i), ()):
                acc += c[i] * (mat.T @ mat)
        if _spectral_deviation_from_identity(acc) > tol:
            return False
    for i in range(rep.num_sinks):
        acc = np.zeros((rep.sink_dims[i], rep.sink_dims[i]))
        for j in range(rep.num_sources):
            for mat in rep.arrow_maps.get((j, i), ()):
                acc += mat @ mat.T
        if _spectral_deviation_from_identity(acc) > tol:
            return False
    return True


def is_sigma_critical(
    rep: BipartiteQuiverRep, sigma, tol: float = DEFAULT_TOL
) -> bool:
    """Vertex-wise critical equations for an integer weight.

    ``sigma`` is a pair (source weights, sink weights) of integer
    sequences.  At each vertex the outgoing Gram sum minus the incoming
    outer-product sum must equal sigma(x) I within ``tol`` in spectral
    norm.  For a bipartite quiver sources have no incoming arrows and
    sinks no outgoing ones.
    """
    sigma_source, sigma_sink = sigma
    if len(sigma_source) != rep.num_sources or len(sigma_sink) != rep.num_sinks:
        raise ValueError("sigma must cover every vertex")
    if any(not isinstance(v, int) for v in tuple(sigma_source) + tuple(sigma_sink)):
        raise TypeError("sigma entries must be integers")
    for j in range(rep.num_sources):
        acc = np.zeros((rep.source_dims[j], rep.source_dims[j]))
        for i in range(rep.num_sinks):
            for mat in rep.arrow_maps.get((j, i), ()):
                acc += mat.T @ mat
        residual = acc - sigma_source[j] * np.eye(rep.source_dims[j])
        if float(np.max(np.abs(np.linalg.eigvalsh((residual + residual.T) / 2)))) > tol:
            return False
    for i in range(rep.num_sinks):
        acc = np.zeros((rep.sink_dims[i], rep.sink_dims[i]))
        for j in range(rep.num_sources):
            for mat in rep.arrow_maps.get((j, i), ()):
                acc -= mat @ mat.T
        residual = acc - sigma_sink[i] * np.eye(rep.sink_dims[i])
        if float(np.max(np.abs(np.linalg.eigvalsh((residual + residual.T) / 2)))) > tol:
            return False
    return True


def scale_to_critical(
    rep: BipartiteQuiverRep, weights: WeightVector
) -> BipartiteQuiverRep:
    """Rescale arrows by sqrt(omega * c_i) per target sink.

    The rescaled representation satisfies the critical equations for the
    induced integer weight exactly when the original pair is a geometric
    Brascamp-Lieb datum.
    """
    if weights.n != rep.num_sinks:
        raise ValueError(f"{weights.n} weights for {rep.num_sinks} sinks")
    om = weights.omega
    maps = {}
    for (j, i), mats in rep.arrow_maps.items():
        factor = math.sqrt(om * float(weights.weights[i]))
        maps[(j, i)] = tuple(factor * mat for mat in mats)
    return BipartiteQuiverRep(
        source_dims=rep.source_dims, sink_dims=rep.sink_dims, arrow_maps=maps
    )
