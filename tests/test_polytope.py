import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frameiso import (
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    PolytopeReport,
    WeightVector,
    certify_membership,
    column_span_dim,
    in_orbit_polytope,
)
from frameiso import polytope
from frameiso.generate import random_degenerate_frame, random_frame
from frameiso.frames import _numerical_rank
from frameiso.polytope import CertificateError, orbit_polytope_report

from conftest import is_generic, traced_peak


def test_membership_generic(mixed_frame, thirds):
    report = in_orbit_polytope(FrameDatum(mixed_frame, thirds))
    assert report.member
    assert report.sum_check
    assert report.tight_subsets == ()
    assert report.violating_subsets == ()


def test_membership_collinear(collinear_frame, thirds):
    report = in_orbit_polytope(FrameDatum(collinear_frame, thirds))
    assert not report.member
    assert report.sum_check
    assert (0, 1) in report.violating_subsets  # 4/3 > rank 1


def test_membership_orthonormal(orthonormal_frame):
    datum = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    report = in_orbit_polytope(datum)
    assert report.member
    assert report.tight_subsets == ((0,), (1,))


def test_sum_check_reported_not_raised(mixed_frame):
    datum = FrameDatum(mixed_frame, WeightVector((1, 1, 1)))
    report = in_orbit_polytope(datum)
    assert not report.sum_check
    assert not report.member


def test_relative_interior(mixed_frame, collinear_frame, orthonormal_frame, thirds):
    assert in_orbit_polytope(FrameDatum(mixed_frame, thirds)).relative_interior
    assert not in_orbit_polytope(
        FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    ).relative_interior
    assert not in_orbit_polytope(FrameDatum(collinear_frame, thirds)).relative_interior
    # c_1 = 1 = dim span(e1): a member on a proper face of the polytope.
    boundary = FrameDatum(
        MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])),
        WeightVector((1, "1/2", "1/2")),
    )
    assert in_orbit_polytope(boundary).member
    assert not in_orbit_polytope(boundary).relative_interior


def test_relint_implies_member(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    report = in_orbit_polytope(datum)
    if report.relative_interior:
        assert report.member


def test_block_scaling_invariance(mixed_frame, thirds):
    # only column spans enter the constraints
    base = in_orbit_polytope(FrameDatum(mixed_frame, thirds))
    scaled = MatrixFrame(
        2, tuple(s * b for s, b in zip((3.0, -0.25, 7.0), mixed_frame.blocks))
    )
    report = in_orbit_polytope(FrameDatum(scaled, thirds))
    assert report.member == base.member
    assert report.tight_subsets == base.tight_subsets
    assert report.violating_subsets == base.violating_subsets


def test_generic_uniform_weights_in_relint():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        frame = random_frame(d, [1] * n, rng)
        datum = FrameDatum(frame, WeightVector.uniform(d, n))
        assert in_orbit_polytope(datum).relative_interior


def test_stability_certificate_random():
    # A generic frame with more blocks than rows is stable for the uniform
    # weights d/n, which therefore lie in the relative interior.
    rng = np.random.default_rng(11)
    frame = random_frame(3, [2, 2, 2, 2, 2], rng)
    assert is_generic(frame)
    report = in_orbit_polytope(FrameDatum(frame, WeightVector.uniform(3, 5)))
    assert report.tight_subsets == ()
    assert report.relative_interior


def test_subset_enumeration_guard():
    # 2^20 - 1 subsets exceed the guard; refused before any rank is taken.
    frame = MatrixFrame(2, tuple([1.0, float(k)] for k in range(20)))
    with pytest.raises(EnumerationSizeError):
        in_orbit_polytope(FrameDatum(frame, WeightVector.uniform(2, 20)))


def _two_pass_relative_interior(datum):
    """Membership pass, then a second pass re-ranking each tight subset."""
    frame, weights = datum.frame, datum.weights.weights
    if sum(weights) != frame.d:
        return False
    tight = []
    for size in range(1, frame.n + 1):
        for subset in itertools.combinations(range(frame.n), size):
            weight_sum = sum(weights[i] for i in subset)
            rank = column_span_dim(frame, subset)
            if weight_sum > rank:
                return False
            if weight_sum == rank and size < frame.n:
                tight.append(subset)
    return all(column_span_dim(frame, s) >= frame.d for s in tight)


@st.composite
def _small_integer_data(draw):
    # Entries in {-1, 0, 1} make rank drops, and so tight and violating
    # subsets, common; weights are positive rationals summing to d.
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    blocks = []
    for _ in range(n):
        cols = draw(st.integers(1, 2))
        entries = draw(st.lists(st.integers(-1, 1), min_size=d * cols, max_size=d * cols))
        blocks.append(np.array(entries, dtype=float).reshape(d, cols))
    shares = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    weights = WeightVector(tuple(Fraction(d * a, sum(shares)) for a in shares))
    return FrameDatum(MatrixFrame(d, tuple(blocks)), weights)


@settings(max_examples=80, deadline=None)
@given(_small_integer_data())
def test_one_pass_relative_interior_matches_two_pass(datum):
    report = in_orbit_polytope(datum)
    assert report.relative_interior == _two_pass_relative_interior(datum)
    assert report.member or not report.relative_interior


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_generic_frame_puts_uniform_weights_in_relint(d, data):
    n = data.draw(st.integers(d + 1, 8))
    cols = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    frame = random_frame(d, cols, np.random.default_rng(seed))
    assume(is_generic(frame))
    report = in_orbit_polytope(FrameDatum(frame, WeightVector.uniform(d, n)))
    # r(S) >= min(d, |S|) > |S| d/n for every proper subset S: nothing is tight.
    assert report.tight_subsets == ()
    assert report.relative_interior


def _per_subset_report(datum):
    """The report from one column_span_dim call and one Fraction sum per subset."""
    frame, weights = datum.frame, datum.weights.weights
    tight, violating = [], []
    for size in range(1, frame.n + 1):
        for subset in itertools.combinations(range(frame.n), size):
            weight_sum = sum((weights[i] for i in subset), Fraction(0))
            rank = column_span_dim(frame, subset)
            if weight_sum > rank:
                violating.append(subset)
            elif weight_sum == rank and size < frame.n:
                tight.append(subset)
    sum_check = sum(weights, Fraction(0)) == frame.d
    member = sum_check and not violating
    return PolytopeReport(
        member=member,
        sum_check=sum_check,
        tight_subsets=tuple(sorted(tight)),
        violating_subsets=tuple(sorted(violating)),
        relative_interior=member
        and all(column_span_dim(frame, s) >= frame.d for s in tight),
    )


@settings(max_examples=80, deadline=None)
@given(_small_integer_data(), st.sampled_from((1, Fraction(3, 4), Fraction(5, 4))))
def test_batched_pass_matches_per_subset_reference(datum, factor):
    # A factor other than 1 breaks the sum condition and moves subsets
    # between the tight, violating and slack cases.
    weights = WeightVector(tuple(factor * w for w in datum.weights.weights))
    datum = FrameDatum(datum.frame, weights)
    assert in_orbit_polytope(datum) == _per_subset_report(datum)


def test_batched_pass_over_several_chunks():
    # Entries in {-1, 0, 1} in the plane make many rank drops.
    rng = np.random.default_rng(5)
    blocks = tuple(rng.integers(-1, 2, size=(2, 1 + k % 2)) for k in range(11))
    frame = MatrixFrame(2, blocks)
    assert frame.n > polytope._CHUNK_BITS  # more than one chunk of masks
    shares = [int(a) for a in rng.integers(1, 4, size=11)]
    weights = WeightVector(tuple(Fraction(2 * a, sum(shares)) for a in shares))
    datum = FrameDatum(frame, weights)
    report = in_orbit_polytope(datum)
    assert report == _per_subset_report(datum)
    assert report.tight_subsets or report.violating_subsets


def test_weight_sums_are_exact():
    # Blocks 0, 1 span the line of e1 and blocks 2, 3 that of e2.  Weights
    # 1/2 +- 10^-30 have the common denominator 10^30: neither int64 nor
    # float can tell 1 + 10^-30 from 1.
    frame = MatrixFrame(2, ([1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]))
    eps = Fraction(1, 10**30)
    half = Fraction(1, 2)

    over = in_orbit_polytope(
        FrameDatum(frame, WeightVector((half + eps, half, half - eps, half)))
    )
    assert over.sum_check
    assert over.violating_subsets == ((0, 1),)  # 1 + 10^-30 > rank 1
    assert over.tight_subsets == ()
    assert not over.member

    equal = in_orbit_polytope(
        FrameDatum(frame, WeightVector((half + eps, half - eps, half, half)))
    )
    assert equal.violating_subsets == ()
    assert equal.tight_subsets == ((0, 1), (2, 3))  # sums equal rank 1
    assert equal.member
    assert not equal.relative_interior


def test_subset_pass_memory_is_bounded():
    # 2^16 - 1 subsets of 24 pooled columns are ranked chunk by chunk.
    frame = random_frame(4, [1, 2] * 8, np.random.default_rng(3))
    datum = FrameDatum(frame, WeightVector.uniform(4, 16))
    report, peak = traced_peak(in_orbit_polytope, datum)
    assert report.relative_interior
    assert peak < 8 * 2**20


@settings(max_examples=80, deadline=None)
@given(_small_integer_data())
def test_witness_is_violating_subset(datum):
    # The report minimize decides divergence on: a non-member lists one
    # violating set, found among the enumeration's; a member none.
    report = orbit_polytope_report(datum)
    oracle = in_orbit_polytope(datum)
    assert report.member == oracle.member
    if report.member:
        assert report.violating_subsets == ()
    else:
        (witness,) = report.violating_subsets
        assert witness and set(witness) <= set(range(datum.frame.n))
        assert witness in oracle.violating_subsets


def _recheck_bases(datum, report):
    """Each basis is full rank by the rank rule; block i is used omega c_i times."""
    frame, weights = datum.frame, datum.weights
    omega = weights.omega
    assert len(report.bases) == omega
    for basis in report.bases:
        assert len(set(basis)) == frame.d
        svals = np.linalg.svd(frame.pooled()[:, list(basis)], compute_uv=False)
        assert _numerical_rank(svals, 1e-9) == frame.d
    owner = np.repeat(np.arange(frame.n), frame.block_cols)
    uses = np.bincount(owner[np.ravel(report.bases)], minlength=frame.n)
    assert uses.tolist() == [int(w * omega) for w in weights.weights]


def _same_verdict(shared, oracle):
    """The shared report agrees with the oracle's and lists only its sets.

    Off the relative interior with weights summing to d it lists at
    least one set.
    """
    assert shared.member == oracle.member
    assert shared.sum_check == oracle.sum_check
    assert shared.relative_interior == oracle.relative_interior
    assert set(shared.violating_subsets) <= set(oracle.violating_subsets)
    assert set(shared.tight_subsets) <= set(oracle.tight_subsets)
    if oracle.sum_check and not oracle.relative_interior:
        assert shared.violating_subsets or shared.tight_subsets


@settings(max_examples=120, deadline=None)
@given(_small_integer_data(), st.sampled_from((1, Fraction(3, 4), Fraction(5, 4))))
def test_certificate_matches_enumeration(datum, factor):
    weights = WeightVector(tuple(factor * w for w in datum.weights.weights))
    datum = FrameDatum(datum.frame, weights)
    report = in_orbit_polytope(datum)
    certificate = certify_membership(datum)
    shared = orbit_polytope_report(datum)
    _same_verdict(shared, report)
    assert report.bases is None
    if report.relative_interior:
        # Neither lists a set, and the certificate's bases stay out of ==.
        assert shared == report
    assert certificate.member == report.member
    assert certificate.relative_interior == report.relative_interior
    if certificate.member:
        _recheck_bases(datum, certificate)
        _recheck_bases(datum, shared)
        assert certificate.violating_subsets == ()
        if not certificate.relative_interior:
            (tight,) = certificate.tight_subsets
            assert tight in report.tight_subsets
    else:
        assert certificate.bases is None
        if report.sum_check:
            (violating,) = certificate.violating_subsets
            assert violating in report.violating_subsets


def test_certificate_boundary_member():
    # c_1 = 1 = dim span(e1): a member on a proper face of the polytope.
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
    datum = FrameDatum(frame, WeightVector((1, "1/2", "1/2")))
    certificate = certify_membership(datum)
    assert certificate.member
    assert not certificate.relative_interior
    assert certificate.tight_subsets == ((0,),)
    _recheck_bases(datum, certificate)


def test_certificate_tight_rank_two_set():
    # a, b, a + b span a plane and weigh 2 = its rank: tight set {0, 1, 2}.
    rng = np.random.default_rng(21)
    a, b, g1, g2 = rng.standard_normal((4, 3))
    frame = MatrixFrame(3, (a, b, a + b, g1, g2))
    datum = FrameDatum(frame, WeightVector(("2/3",) * 3 + ("1/2",) * 2))
    certificate = certify_membership(datum)
    assert certificate.member
    assert not certificate.relative_interior
    assert certificate.tight_subsets == ((0, 1, 2),)
    assert in_orbit_polytope(datum).tight_subsets == ((0, 1, 2),)
    _recheck_bases(datum, certificate)


def _alternating(omega: int) -> WeightVector:
    """Weights 2/5 +- 1/omega, alternating over ten blocks: they sum to 4."""
    step = Fraction(1, omega)
    return WeightVector(tuple(Fraction(2, 5) + (-step if i % 2 else step) for i in range(10)))


@pytest.mark.parametrize(
    "weights, integral",
    [
        (WeightVector.uniform(3, 8), False),
        (WeightVector.uniform(5, 11), False),
        (WeightVector.uniform(4, 8), True),
        (WeightVector.uniform(6, 9), True),
        (WeightVector((1, "1/2", "1/2")), True),
        (WeightVector.uniform(3, 1), False),
        (_alternating(1000), False),
    ],
    ids=["uniform-3-8", "uniform-5-11", "uniform-4-8", "uniform-6-9", "weight-one",
         "one-block", "two-fifths-1000"],
)
def test_integral_proper_set_named_cases(weights, integral):
    # 6/9 = 2/3 and three blocks weigh 2; a weight of 1 is a set by itself.
    assert polytope._integral_proper_set(*weights.scaled()) is integral


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=9), st.integers(1, 40))
def test_integral_proper_set_matches_subset_sums(budgets, omega):
    # The last budget completes the sum to a multiple of omega, as the
    # budgets omega c_i of weights summing to d do.
    scaled = budgets + [omega - sum(budgets) % omega]
    brute = any(
        sum(scaled[i] for i in subset) % omega == 0
        for size in range(1, len(scaled))
        for subset in itertools.combinations(range(len(scaled)), size)
    )
    assert polytope._integral_proper_set(omega, scaled) == brute


def _count_calls(monkeypatch, name: str) -> list:
    """Patch ``_Packing.<name>`` to record each call in the returned list."""
    calls = []
    method = getattr(polytope._Packing, name)

    def counted(self, *args):
        calls.append(name)
        return method(self, *args)

    monkeypatch.setattr(polytope._Packing, name, counted)
    return calls


def test_certificate_skips_digraph_without_integral_set(monkeypatch):
    # No proper block set has an integral weight, so no set can be tight:
    # a member is in the relative interior with no digraph and no swap data.
    digraphs = _count_calls(monkeypatch, "exchange_digraph")
    derived = _count_calls(monkeypatch, "_derive")
    rng = np.random.default_rng
    for datum in (
        FrameDatum(random_frame(3, [1] * 8, rng(0)), WeightVector.uniform(3, 8)),
        FrameDatum(random_frame(5, [2] * 11, rng(1)), WeightVector.uniform(5, 11)),
        FrameDatum(random_frame(4, [1] * 10, rng(0)), _alternating(1000)),
    ):
        certificate = certify_membership(datum)
        assert certificate.relative_interior
        assert certificate.tight_subsets == ()
        _recheck_bases(datum, certificate)
        assert certificate == in_orbit_polytope(datum)
    assert digraphs == [] and derived == []
    # 4/8 = 1/2: pairs of blocks weigh 1, so the digraph decides.
    datum = FrameDatum(random_frame(4, [1] * 8, rng(0)), WeightVector.uniform(4, 8))
    certificate = certify_membership(datum)
    assert certificate.relative_interior
    _recheck_bases(datum, certificate)
    assert len(digraphs) == 1 and derived


@st.composite
def _coprime_or_rational_data(draw):
    # Uniform weights d/n with gcd(d, n) = 1, or shares of 1 to 97 that
    # rarely leave a set of integral weight; entries in {-1, 0, 1}.
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from([k for k in (1, 2, 3) if math.gcd(k, n) == 1]))
    blocks = []
    for _ in range(n):
        cols = draw(st.integers(1, 2))
        entries = draw(st.lists(st.integers(-1, 1), min_size=d * cols, max_size=d * cols))
        blocks.append(np.array(entries, dtype=float).reshape(d, cols))
    if draw(st.booleans()):
        weights = WeightVector.uniform(d, n)
    else:
        shares = draw(st.lists(st.integers(1, 97), min_size=n, max_size=n))
        weights = WeightVector(tuple(Fraction(d * a, sum(shares)) for a in shares))
    return FrameDatum(MatrixFrame(d, tuple(blocks)), weights)


@settings(max_examples=120, deadline=None)
@given(_coprime_or_rational_data())
def test_certificate_verdicts_on_coprime_and_rational_weights(datum):
    oracle = in_orbit_polytope(datum)
    certificate = certify_membership(datum)
    assert certificate.member == oracle.member
    assert certificate.relative_interior == oracle.relative_interior
    if certificate.member:
        _recheck_bases(datum, certificate)


def test_certificate_rechecks_augmented_bases(monkeypatch):
    # e1 + e2 and -e1 - e2 are parallel, so one planned basis fails the
    # rule and one augmenting path completes it.  Weights 2/5 leave no set
    # of integral weight and no digraph runs, but the copies the path
    # changed are still ranked again before the report.
    frame = MatrixFrame(2, ([1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]))
    datum = FrameDatum(frame, WeightVector.uniform(2, 5))
    assert not polytope._integral_proper_set(*datum.weights.scaled())
    digraphs = _count_calls(monkeypatch, "exchange_digraph")
    augmented, ranked = [], []
    apply, rank = polytope._Packing._apply, polytope._Packing._rank

    def recording_apply(self, entry, end):
        apply(self, entry, end)
        augmented.append(set(np.flatnonzero(self.stale).tolist()))

    def recording_rank(self, copies):
        if augmented:
            ranked.extend(copies.tolist())
        return rank(self, copies)

    monkeypatch.setattr(polytope._Packing, "_apply", recording_apply)
    monkeypatch.setattr(polytope._Packing, "_rank", recording_rank)
    certificate = certify_membership(datum)
    assert certificate.relative_interior
    assert len(augmented) == 1 and digraphs == []
    assert augmented[0] <= set(ranked)
    _recheck_bases(datum, certificate)

    # A rule that rejects the augmented copies makes the recheck raise.
    def rejecting_rank(self, copies):
        ok = rank(self, copies)
        if augmented:
            ok &= ~np.isin(copies, list(augmented[-1]))
        return ok

    augmented.clear()
    monkeypatch.setattr(polytope._Packing, "_rank", rejecting_rank)
    with pytest.raises(CertificateError, match="dependent set"):
        certify_membership(datum)


def test_certificate_collinear_non_member(collinear_frame, thirds):
    certificate = certify_membership(FrameDatum(collinear_frame, thirds))
    assert not certificate.member
    assert certificate.violating_subsets == ((0, 1),)  # 4/3 > rank 1


def test_certificate_guard_on_denominators(wide_denominators):
    # omega = 999983 * 999979 copies of 4 pooled columns: refused at once.
    start = time.perf_counter()
    with pytest.raises(EnumerationSizeError):
        certify_membership(wide_denominators)
    assert time.perf_counter() - start < 1.0


def test_certificate_guard_on_basis_arrays():
    # omega = 10^4 copies of 100 pooled columns pass omega N = 10^6, but
    # the copies' 50 x 50 inverses would hold 2.5 10^7 floats: refused first.
    frame = random_frame(50, [2] * 50, np.random.default_rng(3))
    shift = Fraction(1, 10_000)
    weights = WeightVector((1 + shift, 1 - shift) + (1,) * 48)
    datum = FrameDatum(frame, weights)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationSizeError):
            certify_membership(datum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20


def test_certificate_widely_scaled_columns():
    # The rule ranks [[1, 0], [0, 1e-12]] 1 against its largest singular
    # value: the two blocks weigh 2 and violate.
    datum = FrameDatum(MatrixFrame(2, ([1.0, 0.0], [0.0, 1e-12])), WeightVector((1, 1)))
    certificate = certify_membership(datum)
    assert not certificate.member
    assert certificate.violating_subsets == ((0, 1),)
    _same_verdict(orbit_polytope_report(datum), in_orbit_polytope(datum))


def test_report_falls_back_where_rank_rule_is_not_a_matroid():
    # Block 2 alone has rank 2 but with e1 and e2 only rank 1: the rule is
    # not a matroid here, so the certificate fails its recheck and the
    # report comes from the enumeration.
    tiny = [[1e-12, 0.0], [0.0, 1e-12]]
    datum = FrameDatum(
        MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], tiny)), WeightVector(("1/2", "1/2", 1))
    )
    with pytest.raises(CertificateError):
        certify_membership(datum)
    report = orbit_polytope_report(datum)
    assert report == in_orbit_polytope(datum)
    assert report.violating_subsets == ((0, 2), (1, 2))


@settings(max_examples=80, deadline=None)
@given(_small_integer_data(), st.lists(st.integers(-14, 14), min_size=8, max_size=8))
def test_certificate_on_widely_scaled_blocks(datum, exponents):
    # Blocks scaled by 10^-14 .. 10^14 put rank decisions of the rule far
    # from those on unit columns; the shared report keeps the enumeration's
    # verdict.
    frame = datum.frame
    blocks = tuple(10.0**e * b for e, b in zip(exponents, frame.blocks))
    datum = FrameDatum(MatrixFrame(frame.d, blocks), datum.weights)
    report = in_orbit_polytope(datum)
    _same_verdict(orbit_polytope_report(datum), report)
    try:
        certificate = certify_membership(datum)
    except CertificateError:
        return
    assert certificate.member == report.member
    assert certificate.relative_interior == report.relative_interior
    if certificate.member:
        _recheck_bases(datum, certificate)
    elif report.sum_check:
        (violating,) = certificate.violating_subsets
        assert violating in report.violating_subsets


def test_certificate_is_polynomial():
    # 2^19 - 1 subsets take the enumeration seconds; the certificate packs
    # 19 bases.  Above the subset guard it still answers.
    for d, n, limit in ((8, 19, 0.25), (8, 40, 0.25), (16, 256, 2.0)):
        frame = random_frame(d, [1] * n, np.random.default_rng(n))
        datum = FrameDatum(frame, WeightVector.uniform(d, n))
        start = time.perf_counter()
        certificate = certify_membership(datum)
        assert time.perf_counter() - start < limit
        assert certificate.relative_interior
        _recheck_bases(datum, certificate)


def test_certificate_non_member_above_subset_guard():
    frame, _ = random_degenerate_frame(8, 40, np.random.default_rng(4))
    weights = WeightVector.uniform(8, 40)
    certificate = certify_membership(FrameDatum(frame, weights))
    assert not certificate.member
    (violating,) = certificate.violating_subsets
    weight = sum(weights.weights[i] for i in violating)
    assert weight > column_span_dim(frame, violating)


def test_report_above_subset_guard_lists_certificate_set():
    # 2^20 - 1 subsets: the boundary member's report lists the tight set
    # the certificate found instead of enumerating.
    rng = np.random.default_rng(8)
    blocks = ([1.0, 0.0],) + tuple(rng.standard_normal((19, 2)))
    datum = FrameDatum(
        MatrixFrame(2, blocks), WeightVector((1,) + (Fraction(1, 19),) * 19)
    )
    report = orbit_polytope_report(datum)
    assert report == PolytopeReport(
        member=True,
        sum_check=True,
        tight_subsets=((0,),),
        violating_subsets=(),
        relative_interior=False,
    )
