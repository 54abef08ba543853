"""Orbit-polytope membership certificates for frame data.

The orbit polytope of a frame consists of the nonnegative weight vectors
summing to d whose subset sums are bounded by the corresponding
column-span dimensions.  Membership of a positive rational weight vector
is equivalent to semi-stability of the frame's quiver representation,
and membership in the relative interior characterises transformability
into a radial isotropic frame (for locally semi-simple representations).

The subset bound r(S) is the rank of the pooled columns of the blocks in
S, so r is the polymatroid induced by the pooled column matroid (Edmonds
1970), and membership is a matroid-intersection question.  With omega
the weights' common denominator and a_i = omega c_i, let M1 be omega
copies of the pooled column matroid and M2 the partition matroid that
takes at most a_i columns of block i over all copies.  The weights are a
member exactly when M1 and M2 have a common independent set of omega d
elements: omega bases of R^d in which block i supplies a_i columns.
``certify_membership`` finds one in polynomial time and returns the
membership report with the evidence for either answer.

- Member: the omega bases.  The packing starts from a plan of every
  copy's basis at once, ranked by one stacked SVD; only copies whose plan
  fails grow along shortest augmenting paths of the exchange graph.
- Non-member: when no augmenting path is left, the blocks the search
  cannot reach form a set T with c(T) > r(T).
- Relative interior: a member lies in it exactly when the block exchange
  digraph of its bases is strongly connected (Cunningham 1984).  The
  digraph has an arc j -> i when some basis stays a basis after a block-i
  column is swapped for a block-j column; a set with no arc leaving it is
  tight, and a tight set has none.  All arcs of a copy come from the
  one SVD of its basis; only swaps too close to call get their own.
- The residue rule: a tight set S has c(S) = r(S), an integer, and c(S)
  is an integer exactly when the a_i over S sum to 0 mod omega.  Before
  packing, one pass over the first n - 1 budgets with a bitset of the
  omega residues finds whether any proper nonempty S does.  Where none
  does, as for uniform weights d/n with gcd(d, n) = 1 and for generic
  rational weights, a member lies in the relative interior and the
  digraph is not built.
- Swap data: every copy's independence is decided from the singular
  values of its SVD.  The pseudo-inverse rows, |alpha|^2 and residuals
  that a swap question reads are derived from that SVD's factors only
  when an augmenting path or the digraph first asks one.  So a member
  whose planned bases all pass and which has no integral set derives
  none, and no copy's SVD is taken twice.

The certificate decides independence by one rule: a set of pooled
columns is independent when its smallest singular value exceeds tol
times the largest singular value of the whole pooled matrix.  This is
the ``_numerical_rank`` rule of the subset pass with the frame's top
singular value in place of the set's, which is never larger, so a basis
it accepts shows the pass rank every block subset at least as high as
the basis's columns in it.  Its member and relative-interior verdicts
therefore hold for the pass's rule too.  Its violating and tight sets
are rechecked against the pass's rule with exact integer weight sums.
Where the pass's rule does not act as a matroid, as on frames whose
column norms differ so widely that it ranks a block subset below one of
its parts, a recheck can fail, or an augmenting path can leave a
dependent set: the certificate then raises CertificateError.  Its
arrays grow linearly in omega, and it refuses with EnumerationSizeError
when omega max(N, d^2) exceeds DEFAULT_SIZE_GUARD.  Its time does not:
on a non-member the packing can take up to about omega augmenting
paths, each of which starts by testing every copy still short of a
basis, so the time grows with omega^2.

``orbit_polytope_report``, the report the solver and the CLI use, is the
certificate's report at every n: its verdicts, and its one violating or
tight set as the subset lists.  Only where the certificate cannot answer
(CertificateError, or a denominator past its guard) does it fall back on
the enumeration, below the enumeration's own guard.

``in_orbit_polytope`` stays as the exact oracle: one pass over all
2^n - 1 nonempty block subsets, which ranks each subset once and lists
every tight and violating subset.  Subsets are bitmasks, taken in chunks
of 2^_CHUNK_BITS; inside a chunk, the subsets with the same pooled
column count m are gathered as one (group, d, m) stack and ranked by one
batched SVD, so every temporary is bounded by the chunk.  The weights
are scaled by their common denominator to Python ints, whose subset sums
are compared exactly with the scaled ranks; only the span ranks carry a
numeric tolerance.  The pass is exponential in n and refuses with
EnumerationSizeError when 2^n - 1 exceeds DEFAULT_SIZE_GUARD (n >= 20).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .frames import (
    DEFAULT_SIZE_GUARD,
    DEFAULT_TOL,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    _freeze,
    _numerical_rank,
    _operator,
    column_span_dim,
)

# Subsets per chunk of the pass: 2^_CHUNK_BITS masks, so every temporary
# is bounded by 2^_CHUNK_BITS x N whatever n is.
_CHUNK_BITS = 9


@dataclass(frozen=True)
class PolytopeReport:
    """Outcome of the membership test.

    ``tight_subsets`` lists the proper nonempty subsets whose weight sum
    equals the span bound; the full set [n] is excluded because its
    constraint is forced tight by the sum condition.  ``violating_subsets``
    lists the subsets (including [n]) whose weight sum exceeds the bound.
    Subsets are 0-based index tuples in lexicographic order.
    ``relative_interior`` holds when the weights are a member and no
    tight subset has span rank below d.

    Every listed subset was rechecked exactly, and a report off the
    relative interior whose weights sum to d lists at least one subset.
    Only ``in_orbit_polytope``, the exact oracle, lists them all;
    ``certify_membership`` lists its one violating or tight set (none for
    a relative-interior member or a failed sum check), so a subset missing
    from its lists may still be tight or violating.

    ``bases`` is a member's evidence in a report of ``certify_membership``:
    omega = the weights' common denominator bases of R^d, in which block i
    supplies exactly omega c_i columns, as one read-only (omega, d) array
    of pooled column indices, each row sorted, in the smallest unsigned
    integer type that holds N - 1.  It is None in every other report.  It
    is left out of ``==``, so two reports compare equal when they give the
    same verdicts and list the same sets, whichever path built them.
    """

    member: bool
    sum_check: bool
    tight_subsets: tuple
    violating_subsets: tuple
    relative_interior: bool
    bases: Optional[np.ndarray] = field(default=None, compare=False)


def _subset_sums(values) -> np.ndarray:
    """All 2^k subset sums of ``values`` as an object array indexed by bitmask.

    Entry ``mask`` sums ``values[i]`` over the bits i of ``mask``; Python
    int values give exact Python int sums.
    """
    sums = np.zeros(1, dtype=object)
    for value in values:
        # The masks with this bit set are the masks below it plus value.
        sums = np.concatenate((sums, sums + value))
    return sums


def _subset_ranks(frame: MatrixFrame, masks: np.ndarray, tol: float) -> np.ndarray:
    """Column-span rank of each nonempty block subset in ``masks``.

    Subsets with the same pooled column count m are gathered from the
    pooled matrix as one (group, d, m) stack and ranked by one batched SVD.
    """
    pooled = frame.pooled()
    chosen = (masks[:, None] >> frame._owner) & 1
    widths = chosen.sum(axis=1, dtype=np.intp)
    ranks = np.empty(len(masks), dtype=np.intp)
    for m in np.flatnonzero(np.bincount(widths)):
        rows = np.flatnonzero(widths == m)
        columns = np.nonzero(chosen[rows])[1].reshape(len(rows), m)
        # pooled[:, columns] is (d, group, m); [:, k, :] holds subset k's columns.
        stack = np.moveaxis(pooled[:, columns], 1, 0)
        ranks[rows] = _numerical_rank(np.linalg.svd(stack, compute_uv=False), tol)
    return ranks


def _subset(mask: int, n: int) -> tuple:
    return tuple(i for i in range(n) if mask >> i & 1)


def in_orbit_polytope(datum: FrameDatum, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """Exact membership test of the weights in the frame's orbit polytope.

    Raises EnumerationSizeError when the 2^n - 1 block subsets exceed
    DEFAULT_SIZE_GUARD.
    """
    frame, weights = datum.frame, datum.weights
    n, d = frame.n, frame.d
    count = 2**n - 1
    if count > DEFAULT_SIZE_GUARD:
        raise EnumerationSizeError(
            f"2^{n} - 1 = {count} block subsets exceed the size guard"
            f" {DEFAULT_SIZE_GUARD}"
        )
    omega, scaled = weights.scaled()
    # Bit i of a mask selects block i.  A chunk fixes the bits from
    # low_bits up and runs through all the bits below.
    low_bits = min(n, _CHUNK_BITS)
    low_sums = _subset_sums(scaled[:low_bits])
    high_sums = _subset_sums(scaled[low_bits:])
    bounds = np.array([rank * omega for rank in range(d + 1)], dtype=object)
    lows = np.arange(2**low_bits)

    tight = []
    violating = []
    tight_below_d = False
    for high, high_sum in enumerate(high_sums):
        masks = (high << low_bits) + lows
        sums = low_sums + high_sum
        if high == 0:
            masks, sums = masks[1:], sums[1:]  # the empty subset
        ranks = _subset_ranks(frame, masks, tol)
        excess = sums - bounds[ranks]
        violating.extend(masks[excess > 0].tolist())
        at_bound = (excess == 0) & (masks != count)  # [n] is never listed
        tight.extend(masks[at_bound].tolist())
        # A tight constraint of rank d cannot cut the affine slice further
        # than the sum condition already does; one of rank below d puts
        # the weights on a proper face.
        tight_below_d = tight_below_d or bool(np.any(ranks[at_bound] < d))

    sum_check = high_sums[-1] + low_sums[-1] == d * omega
    member = sum_check and not violating
    return PolytopeReport(
        member=member,
        sum_check=sum_check,
        tight_subsets=tuple(sorted(_subset(m, n) for m in tight)),
        violating_subsets=tuple(sorted(_subset(m, n) for m in violating)),
        relative_interior=member and not tight_below_d,
    )


# Most floats in one stacked temporary of the certificate (planned bases,
# exchange bounds), so its temporaries stay bounded whatever omega is.
_ARC_CHUNK = 2**16
# Rounding allowance of the exchange bounds: _ROUNDING d eps kappa(B)
# (1 + h_p / s_min(B)) |x| for column x put in place p of copy B.
_ROUNDING = 16.0
_EPS = float(np.finfo(float).eps)


class CertificateError(ValueError):
    """The rank rule does not act as a matroid on this frame at this tolerance.

    Raised when a basis the packing built, or a set its search delimits,
    fails its recheck.  With exact ranks neither can happen; numerically
    it takes decisions at the tolerance, or columns whose norms differ so
    widely that the rule, which compares singular values with the
    largest one, ranks a set below one of its subsets.
    """


def _check_subset(datum: FrameDatum, subset, tol: float, relation) -> None:
    """Recheck omega c(S) against omega r(S) exactly; raise CertificateError if it fails.

    ``relation`` is the required comparison of the two scaled integers.
    """
    if not subset:
        raise CertificateError(
            "the certificate found no block subset: the rank rule does not"
            " act as a matroid here"
        )
    omega, scaled = datum.weights.scaled()
    rank = column_span_dim(datum.frame, subset, tol)
    if not relation(sum(scaled[i] for i in subset), rank * omega):
        raise CertificateError(
            f"block subset {subset} does not recheck at tol={tol}: the rank"
            " rule does not act as a matroid here"
        )


class _Packing:
    """omega independent sets of pooled columns under the block budgets.

    Copy k holds ``basis[k, :size[k]]``; column j of copy k is the element
    (k, j) of the first matroid, the direct sum of omega copies of the
    pooled column matroid.  Block i supplies at most ``budget[i]``
    elements over all copies (the partition matroid).

    Independence has one rule: a set of raw pooled columns is independent
    when its smallest singular value exceeds ``floor``, tol times the
    largest singular value of the whole pooled matrix.  It is the subset
    pass's rule (``_numerical_rank``) with the frame's top singular value
    in place of the set's, which is never larger, so any k columns of a
    block subset that it accepts make the pass rank that subset at least
    k.  Subsets of independent sets stay independent (interlacing).

    The SVD B = U S V^T of each copy gives its pseudo-inverse rows P and,
    for every pooled column x, the coefficients alpha = P x and the
    residual w = x - B alpha.  For the set B' in which x replaces column
    p of B (or joins B), they bound s_min(B').  From above by the
    distance of x from the span of B's other columns, |(alpha_p h_p, w)|
    with h_p = 1 / |P_p|.  From below through B' = B E + w e_p^T, with E
    the identity whose column p is alpha: s_min(B') >= max(s_min(B)
    s_min(E), min(s_min(B), |w|) s_min([E; e_p^T])), and both s_min have
    closed forms.  A set whose bound clears the floor by a factor of two,
    after a rounding allowance, is decided by it; any other by the SVD of
    B' itself.  P, |alpha|^2 and |w| are the swap data: ``_rank`` keeps
    the factors U, S, V of each SVD it takes, and ``decide`` derives the
    swap data from them (``_derive``) the first time it is asked.
    """

    def __init__(self, frame: MatrixFrame, budget: np.ndarray, omega: int, tol: float):
        self.pooled = frame.pooled()
        with np.errstate(over="ignore"):
            self.norms = np.linalg.norm(self.pooled, axis=0)
        # tol times the top singular value, from the d x d frame operator;
        # past the float range no set of columns clears the floor.
        try:
            top = np.linalg.eigvalsh(_operator(self.pooled))[-1]
            self.floor = tol * math.sqrt(max(top, 0.0))
        except OverflowError:
            self.floor = math.inf
        self.owner = frame._owner
        self.starts = frame.block_starts
        self.budget = budget
        self.d = d = frame.d
        cols = frame.total_cols
        self.basis = np.zeros((omega, d), dtype=np.intp)
        self.size = np.zeros(omega, dtype=np.intp)
        self.chosen = np.zeros((omega, cols), dtype=bool)
        self.used = np.zeros(len(budget), dtype=np.int64)
        # From each copy's SVD: extreme singular values, and the factors
        # of the copies ranked since swap data was last derived.
        self.smin = np.zeros(omega)
        self.smax = np.zeros(omega)
        self.pending = []
        # Swap data, derived from the factors when a swap question is
        # asked: pseudo-inverse rows, and |alpha|^2 and |w| of every pooled
        # column.
        self.pinv = np.zeros((omega, d, d))
        self.alpha2 = np.zeros((omega, cols))
        self.resid = np.zeros((omega, cols))
        self.stale = np.ones(omega, dtype=bool)

    def _rule(self, columns: np.ndarray) -> np.ndarray:
        """Whether each row of pooled column indices is independent, by the SVD."""
        independent = np.zeros(len(columns), dtype=bool)
        width = columns.shape[1]
        step = max(1, _ARC_CHUNK // (self.d * width))
        for lo in range(0, len(columns), step):
            rows = columns[lo : lo + step]
            svals = np.linalg.svd(self.pooled[:, rows].transpose(1, 0, 2), compute_uv=False)
            independent[lo : lo + step] = svals[:, -1] > self.floor
        return independent

    def _rank(self, copies: np.ndarray) -> np.ndarray:
        """SVD ``copies`` at their sizes and keep the factors of the independent ones.

        Returns the mask of the copies the rule finds independent.
        """
        ok = np.ones(len(copies), dtype=bool)
        cols = self.pooled.shape[1]
        step = max(1, _ARC_CHUNK // (self.d * cols))
        for s in set(self.size[copies].tolist()):
            group = np.flatnonzero(self.size[copies] == s)
            if s == 0:
                self.smin[copies[group]] = self.smax[copies[group]] = 0.0
                self.alpha2[copies[group]] = 0.0
                self.resid[copies[group]] = self.norms
                continue
            for lo in range(0, len(group), step):
                sel = group[lo : lo + step]
                stack = self.pooled[:, self.basis[copies[sel], :s]].transpose(1, 0, 2)
                u, svals, vt = np.linalg.svd(stack, full_matrices=False)
                good = svals[:, -1] > self.floor
                ok[sel] = good
                ks, u, svals, vt = copies[sel[good]], u[good], svals[good], vt[good]
                self.pending.append((ks, u, svals, vt))
                self.smin[ks] = svals[:, -1]
                self.smax[ks] = svals[:, 0]
        self.stale[copies[ok]] = False
        return ok

    def _derive(self):
        """Swap data of the copies ranked since the last call, from their factors."""
        for ks, u, svals, vt in self.pending:
            s = svals.shape[1]
            pinv = (np.swapaxes(vt, 1, 2) / svals[:, None, :]) @ np.swapaxes(u, 1, 2)
            self.pinv[ks, :s] = pinv
            self.alpha2[ks] = np.sum((pinv @ self.pooled) ** 2, axis=1)
            if s == self.d:
                self.resid[ks] = 0.0
            else:
                ut_x = np.swapaxes(u, 1, 2) @ self.pooled
                self.resid[ks] = np.linalg.norm(self.pooled - u @ ut_x, axis=1)
        self.pending.clear()

    def refresh(self):
        """Rank the copies changed since last time; they must be independent."""
        stale = np.flatnonzero(self.stale)
        if stale.size and not np.all(self._rank(stale)):
            raise CertificateError(
                "an augmenting path left a dependent set: the rank rule does not"
                " act as a matroid here"
            )

    def decide(self, ks: np.ndarray, ps: Optional[np.ndarray], candidates: np.ndarray) -> np.ndarray:
        """Independence of copy k with column p replaced by each pooled column.

        Row r is copy ks[r] with its column ps[r] swapped out, or with
        nothing swapped out when ``ps`` is None; column x of the result is
        the verdict on putting pooled column x in.  Entries outside
        ``candidates`` are False.  The copies must be fresh (``refresh``);
        swap data pending since their last SVD is derived here.
        """
        self._derive()
        floor, x = self.floor, self.norms
        smin, smax = self.smin[ks, None], self.smax[ks, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if ps is None:
                ap, hp = np.zeros((len(ks), len(x))), 0.0
            else:
                prow = self.pinv[ks, ps]
                ap = prow @ self.pooled
                hp = 1.0 / np.linalg.norm(prow, axis=1)[:, None]
            slack = _ROUNDING * self.d * _EPS * (smax / smin) * (1.0 + hp / smin) * x
            wn = self.resid[ks]
            big = 1.0 + self.alpha2[ks]
            ap2 = ap * ap
            # s_min(E) = |alpha_p| / s_max(E), from s_max s_min = |alpha_p|
            # and s_max^2 + s_min^2 = 1 + |alpha|^2.
            smax_e2 = 0.5 * (big + np.sqrt(np.maximum(big * big - 4.0 * ap2, 0.0)))
            lower = np.where(np.abs(ap) * hp > 4.0 * slack, smin * np.abs(ap) / np.sqrt(smax_e2), 0.0)
            if wn.any():  # only sets short of a basis have a residual
                # s_min([E; e_p^T])^2: the smaller eigenvalue of a 2 x 2
                # block with trace 1 + big and determinant 1 + alpha_p^2.
                trace, det = 1.0 + big, 1.0 + ap2
                root = np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))
                via_w = np.minimum(smin, wn) * np.sqrt(2.0 * det / (trace + root))
                lower = np.maximum(lower, np.where(wn > 4.0 * slack, via_w, 0.0))
            upper = np.sqrt(ap2 * hp * hp + wn * wn)
            dependent = upper + slack <= 0.5 * floor
            independent = lower > 2.0 * floor
        rows, cols = np.nonzero(candidates & ~(dependent | independent))
        for s in set(self.size[ks[rows]].tolist()):
            pick = self.size[ks[rows]] == s
            r, c = rows[pick], cols[pick]
            members = self.basis[ks[r], :s]
            if ps is None:
                members = np.concatenate((members, c[:, None]), axis=1)
            else:
                members[np.arange(len(r)), ps[r]] = c
            independent[r, c] = self._rule(members)
        return independent & candidates

    def warm_start(self):
        """Plan all omega bases at once and keep the ones of full rank.

        The blocks, sorted by decreasing budget, are written out budget
        times each into omega d slots, and slot p goes to copy p mod omega
        (wrap-around), so every copy gets d slots and a block's slots land
        in consecutive copies.  A copy whose planned basis fails the rank
        rule keeps the planned columns that are independent of those
        before them.
        """
        omega, d = self.basis.shape
        order = np.argsort(-self.budget, kind="stable")
        counts = self.budget[order]
        labels = np.repeat(order, counts)
        slots = np.arange(omega * d)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        copy = slots % omega
        # A block's occurrences inside one copy take distinct columns.
        occurrence = (slots - first) // omega
        cols = np.diff(np.append(self.starts, len(self.owner)))[labels]
        self.basis[copy, slots // omega] = self.starts[labels] + (occurrence + copy) % cols
        self.size[:] = d
        failing = np.flatnonzero(~self._rank(np.arange(omega)))
        planned = self.basis.copy()
        self.size[failing] = 0
        for t in range(d if failing.size else 0):
            for s in set(self.size[failing].tolist()):
                ks = failing[self.size[failing] == s]
                members = np.concatenate((self.basis[ks, :s], planned[ks, t, None]), axis=1)
                grow = ks[self._rule(members)]
                self.basis[grow, s] = planned[grow, t]
                self.size[grow] += 1
        rows = np.arange(d) < self.size[:, None]
        self.chosen[np.nonzero(rows)[0], self.basis[rows]] = True
        self.used = np.bincount(self.owner[self.basis[rows]], minlength=len(self.budget))

    def augment(self) -> Optional[np.ndarray]:
        """Grow the packing by one element along a shortest augmenting path.

        Breadth-first search over the exchange graph, compressed to blocks:
        every element outside the packing of a saturated block leads to
        the same elements, the packed ones of its block, so a block is
        entered once, by the first column that reaches it.  Layer 0 holds
        the columns independent of a deficient copy; a packed element
        (k, p) leads to the columns that can replace it in copy k.  The
        search ends at a block with budget to spare.  Returns None after
        growing the packing, or the mask of the blocks the search reached
        when no augmenting path exists.
        """
        self.refresh()
        n = len(self.budget)
        spare = self.budget - self.used
        reached = np.zeros(n, dtype=bool)
        # Block -> (copy, column entering it, (copy, row) displaced or None).
        entry = {}
        step = max(1, _ARC_CHUNK // len(self.owner))
        deficient = np.flatnonzero(self.size < self.d)
        for lo in range(0, len(deficient), step):
            ks = deficient[lo : lo + step]
            grows = self.decide(ks, None, ~self.chosen[ks])
            for k, row in zip(ks, grows):
                free = np.flatnonzero(row)
                blocks, first = np.unique(self.owner[free], return_index=True)
                new = ~reached[blocks]
                for b, j in zip(blocks[new], free[first[new]]):
                    entry[b] = (k, j, None)
                reached[blocks] = True
        layer = np.flatnonzero(reached)
        valid = np.arange(self.d) < self.size[:, None]
        owners = np.where(valid, self.owner[self.basis], -1)
        while layer.size:
            ends = layer[spare[layer] > 0]
            if ends.size:
                self._apply(entry, ends[np.argmax(spare[ends])])
                return None
            ks, ps = np.nonzero(np.isin(owners, layer))
            found = []
            for lo in range(0, len(ks), step):
                k, p = ks[lo : lo + step], ps[lo : lo + step]
                candidates = ~self.chosen[k] & ~reached[self.owner]
                arcs = self.decide(k, p, candidates)
                rows, cols = np.nonzero(arcs)
                blocks, first = np.unique(self.owner[cols], return_index=True)
                reached[blocks] = True
                for b, f in zip(blocks, first):
                    y = (k[rows[f]], p[rows[f]])
                    entry[b] = (y[0], cols[f], y)
                found.append(blocks)
            layer = np.concatenate(found) if found else layer[:0]
        return reached

    def _apply(self, entry: dict, end: int):
        """Swap the elements along the path that ends by entering block ``end``."""
        path = []
        block = end
        while True:
            k, j, displaced = entry[block]
            path.append((k, j, displaced))
            if displaced is None:
                break
            block = self.owner[self.basis[displaced]]
        for k, j, displaced in path:
            if displaced is None:
                self.basis[k, self.size[k]] = j
                self.size[k] += 1
            else:
                self.chosen[k, self.basis[displaced]] = False
                self.basis[displaced] = j
            self.chosen[k, j] = True
            self.stale[k] = True
        self.used[end] += 1

    def exchange_digraph(self) -> np.ndarray:
        """Adjacency of the block exchange digraph of full bases.

        adjacency[j, i] holds when some copy's basis stays a basis after
        one of its block-i columns is swapped for a block-j column.
        """
        self.refresh()
        omega, d = self.basis.shape
        n = len(self.budget)
        swaps = np.zeros((n, n), dtype=bool)
        step = max(1, _ARC_CHUNK // (d * len(self.owner)))
        for lo in range(0, omega, step):
            ks = np.repeat(np.arange(lo, min(lo + step, omega)), d)
            ps = np.tile(np.arange(d), len(ks) // d)
            arcs = self.decide(ks, ps, ~self.chosen[ks])
            # hits[r, j]: row r can be swapped for a block-j column.
            hits = np.logical_or.reduceat(arcs, self.starts, axis=1)
            # Row i of swaps: the blocks whose columns a block-i row can give way to.
            np.logical_or.at(swaps, self.owner[self.basis[ks, ps]], hits)
        return swaps.T


def _integral_proper_set(omega: int, scaled) -> bool:
    """Whether some proper nonempty block set S has an integral weight c(S).

    c(S) is an integer exactly when the sum of a_i = omega c_i over S is
    0 mod omega.  The weights sum to d, so the complement of such a set is
    another, and one of the two avoids the last block: the nonempty sets
    of the first n - 1 blocks decide it.  Bit r of ``reach`` marks a
    residue r that some nonempty set of the blocks seen so far sums to;
    each block adds itself and rotates ``reach`` by its residue.
    """
    full = (1 << omega) - 1
    reach = 0
    for a in scaled[:-1]:
        r = a % omega
        reach |= ((reach << r | reach >> (omega - r)) & full) | 1 << r
        if reach & 1:
            return True
    return False


def _closed_set(adjacency: np.ndarray) -> Optional[tuple]:
    """A nonempty proper block set with no arc leaving it, or None.

    None means the digraph is strongly connected.  Otherwise the set is
    the blocks reachable from block 0, or, when that is all of them, the
    blocks that cannot reach block 0.
    """
    n = len(adjacency)
    if np.all(adjacency | np.eye(n, dtype=bool)):
        return None  # every block swaps with every other
    for graph, complement in ((adjacency, False), (adjacency.T, True)):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = np.any(graph[frontier], axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return tuple(np.flatnonzero(~seen if complement else seen).tolist())
    return None


def certify_membership(datum: FrameDatum, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """Exact polynomial membership report by matroid intersection.

    With omega the weights' common denominator and a_i = omega c_i, the
    weights are a member exactly when omega bases of R^d can be packed
    from the pooled columns with block i supplying a_i of their columns
    (see the module docstring).  A member's report carries the bases and,
    off the relative interior, one tight set; a non-member's whose weights
    sum to d carries one violating set.  Its arrays hold omega N and
    omega d^2 floats, so it refuses with EnumerationSizeError, before
    anything is allocated, when omega max(N, d^2) exceeds
    DEFAULT_SIZE_GUARD.  Raises CertificateError (a ValueError) when a
    basis or set it found fails its recheck, which takes a frame on which
    the rank rule does not act as a matroid.

    A tight set has an integral weight, its rank.  Where no proper
    nonempty block set has one (``_integral_proper_set``, the residue
    rule, decided before any packing), a member is reported in the
    relative interior with no tight set, and the exchange digraph is not
    built; swap data is then derived only if the warm start leaves an
    augmenting path to find.  The bases of every member are ranked again
    after the last augmenting path, whichever way the verdict is reached.
    Non-members take the same path with or without an integral set.
    """
    frame = datum.frame
    omega, scaled = datum.weights.scaled()
    if omega * max(frame.total_cols, frame.d**2) > DEFAULT_SIZE_GUARD:
        raise EnumerationSizeError(
            f"{omega} copies of {frame.total_cols} pooled columns in R^{frame.d}"
            f" exceed the size guard {DEFAULT_SIZE_GUARD}"
        )
    if sum(scaled) != frame.d * omega:
        return PolytopeReport(False, False, (), (), False)
    budget = np.array(scaled, dtype=np.int64)
    over = np.flatnonzero(budget > omega * np.asarray(frame.block_cols))
    if over.size:
        # a_i > omega d_i >= omega r({i}): no packing can use block i enough.
        subset = (int(over[0]),)
        _check_subset(datum, subset, tol, operator.gt)
        return PolytopeReport(False, True, (), (subset,), False)

    face_possible = _integral_proper_set(omega, scaled)
    packing = _Packing(frame, budget, omega, tol)
    packing.warm_start()
    while np.any(packing.size < frame.d):
        reached = packing.augment()
        if reached is not None:
            subset = tuple(np.flatnonzero(~reached).tolist())
            _check_subset(datum, subset, tol, operator.gt)
            return PolytopeReport(False, True, (), (subset,), False)

    packing.refresh()
    tight = None
    if face_possible:
        tight = _closed_set(packing.exchange_digraph())
        if tight is not None:
            _check_subset(datum, tight, tol, operator.eq)
    return PolytopeReport(
        member=True,
        sum_check=True,
        tight_subsets=() if tight is None else (tight,),
        violating_subsets=(),
        relative_interior=tight is None,
        bases=_freeze(
            np.sort(packing.basis, axis=1).astype(np.min_scalar_type(frame.total_cols - 1))
        ),
    )


def orbit_polytope_report(datum: FrameDatum, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """The membership report of ``solver.minimize`` and ``cli check``.

    It is ``certify_membership``'s report.  A member in the relative
    interior lists nothing, and that is exact: a proper tight set would
    put the weights on a face, and positive weights leave no proper set
    of weight d, the only weight a rank-d tight set can have.  Where no
    proper block set has an integral weight (uniform d/n with
    gcd(d, n) = 1, generic rational weights), a member's relative-interior
    verdict follows from the residue rule without the exchange digraph,
    and its swap data is derived only for augmenting paths.  Where the
    certificate cannot answer, on a frame on which it fails its recheck
    (CertificateError) or on weights whose common denominator exceeds its
    size guard (EnumerationSizeError), the report is
    ``in_orbit_polytope``'s while 2^n - 1 is within DEFAULT_SIZE_GUARD;
    above it the error is raised.
    """
    try:
        return certify_membership(datum, tol)
    except (CertificateError, EnumerationSizeError):
        if 2**datum.frame.n - 1 > DEFAULT_SIZE_GUARD:
            raise
        return in_orbit_polytope(datum, tol)
