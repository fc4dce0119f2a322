import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrook.boards import compositions
from qrook.qpoly import (
    LaurentPoly,
    darga,
    is_symmetric,
    is_unimodal,
    q_binomial,
    q_bracket,
    q_factorial,
    q_multinomial,
    q_stirling,
    zsu_check,
)
from qrook.qpoly import _PackedSeries, _kronecker_width, _l1_norm, _pack, _unpack

from oracles import (
    evaluate_by_powers,
    partitions_in_box_gf,
    sparse_add,
    sparse_bivariate_delta,
    sparse_bivariate_mul,
    sparse_dense,
    sparse_mul,
    series_divided_by_one_minus,
    series_times_linear,
    sparse_str,
    stirling2,
    zsu_atom,
)


def poly(d):
    return LaurentPoly(d)


class TestLaurentRing:
    def test_canonical_form_drops_zeros(self):
        assert poly({0: 1, 2: 0}) == poly({0: 1})
        assert not poly({3: 0})

    def test_arithmetic(self):
        f = poly({0: 1, 1: 2})
        g = poly({-1: 1, 1: -2})
        assert f + g == poly({-1: 1, 0: 1})
        assert f - f == LaurentPoly.zero()
        assert f * g == poly({-1: 1, 0: 2, 1: -2, 2: -4})
        assert not f * 0
        assert 3 * f == poly({0: 3, 1: 6})

    def test_shift_and_inverse_substitution(self):
        f = poly({0: 1, 2: 5})
        assert f.shifted(-3) == poly({-3: 1, -1: 5})
        assert f.subs_q_inverse() == poly({0: 1, -2: 5})
        assert f.subs_q_inverse().subs_q_inverse() == f

    def test_evaluate(self):
        f = poly({2: 2, 1: -1, 0: -1})
        assert f.evaluate(2) == 5
        assert f.evaluate(1) == 0
        from fractions import Fraction

        assert poly({-1: 1}).evaluate(2) == Fraction(1, 2)
        assert LaurentPoly.zero().evaluate(0) == 0 and type(LaurentPoly.zero().evaluate(0)) is int
        assert poly({0: 5, 1: 1}).evaluate(0) == 5
        with pytest.raises(ZeroDivisionError):
            poly({-1: 1, 1: 1}).evaluate(0)
        # an integral Fraction result comes back as an int
        value = poly({-1: 2, 1: 2}).evaluate(Fraction(1, 2))
        assert value == 5 and type(value) is int
        assert poly({-2: 1}).evaluate(Fraction(2, 3)) == Fraction(9, 4)

    def test_dense_serialization_round_trip(self):
        f = poly({-2: 3, 0: -1, 1: 4})
        obj = f.to_dense_dict()
        assert obj == {"min_exp": -2, "coeffs": [3, 0, -1, 4]}
        assert LaurentPoly.from_dense_dict(obj) == f
        assert LaurentPoly.zero().to_dense_dict() == {"min_exp": 0, "coeffs": []}

    def test_non_integral_values_rejected(self):
        # int() would truncate these to 1 + 2*q and to 0
        with pytest.raises(ValueError, match="0.9 is not an integer"):
            LaurentPoly.from_dense_dict({"min_exp": 0.9, "coeffs": [1, 2]})
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            LaurentPoly.from_dense_dict({"min_exp": 0, "coeffs": [1.5, 2.7]})
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) is not an integer"):
            LaurentPoly({0: Fraction(1, 2)})
        with pytest.raises(ValueError, match="is not an integer"):
            LaurentPoly({Fraction(1, 2): 1})
        # integral values of other types read as their int
        assert LaurentPoly.from_dense_dict({"min_exp": 1.0, "coeffs": [Fraction(4, 2), 3.0]}) == poly({1: 2, 2: 3})

    def test_str(self):
        assert str(poly({1: 2, 2: 1})) == "2*q + q^2"
        assert str(poly({-1: -1})) == "-q^-1"
        assert str(LaurentPoly.zero()) == "0"


@st.composite
def laurent_polys(draw):
    items = draw(
        st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
    )
    return LaurentPoly(items)


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


class TestBrackets:
    def test_bracket_examples(self):
        assert not q_bracket(0)
        assert q_bracket(3) == poly({0: 1, 1: 1, 2: 1})
        assert q_bracket(-1) == poly({-1: -1})
        assert q_bracket(-2) == poly({-1: -1, -2: -1})

    @pytest.mark.parametrize("k", range(-5, 6))
    def test_bracket_matches_rational_definition(self, k):
        # [k] * (1 - q) == 1 - q^k
        assert q_bracket(k) * poly({0: 1, 1: -1}) == poly({0: 1}) - poly({k: 1})

    def test_factorial_examples(self):
        assert q_factorial(0) == LaurentPoly.one()
        assert q_factorial(2) == poly({0: 1, 1: 1})
        assert q_factorial(3) == poly({0: 1, 1: 2, 2: 2, 3: 1})
        with pytest.raises(ValueError):
            q_factorial(-1)

    def test_binomial_examples(self):
        assert q_binomial(2, 1) == poly({0: 1, 1: 1})
        assert not q_binomial(3, 5)
        assert q_binomial(-1, 1) == poly({-1: -1})
        assert q_binomial(7, 0) == LaurentPoly.one()
        assert q_binomial(-3, 0) == LaurentPoly.one()

    @pytest.mark.parametrize("m", range(0, 9))
    def test_binomial_against_box_partitions(self, m):
        for k in range(m + 1):
            expected = partitions_in_box_gf(m - k, k)
            assert q_binomial(m, k) == expected
            assert zsu_check(q_binomial(m, k), k * (m - k))

    @pytest.mark.parametrize("m", range(-6, 9))
    def test_binomial_pascal_recurrence(self, m):
        for k in range(1, 6):
            assert q_binomial(m, k) == q_binomial(m - 1, k - 1) + q_binomial(
                m - 1, k
            ).shifted(k)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_binomial_negative_numerator_identity(self, m):
        for k in range(0, 5):
            lhs = q_binomial(-m, k)
            rhs = q_binomial(m + k - 1, k).shifted(-k * m - k * (k - 1) // 2)
            if k % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_wide_binomials_build_the_smaller_side(self):
        # [m, k] = [m, m - k]: near k = m the value is built from m - k
        # factors, so the near-trivial [400, 400] and [400, 399] are quick
        start = time.perf_counter()
        assert q_binomial.__wrapped__(400, 400) == LaurentPoly.one()
        assert q_binomial.__wrapped__(400, 399) == q_bracket(400)
        assert time.perf_counter() - start < 1

    def test_binomial_theorem(self):
        # on the packed x-series kernel: 1/((1-x)(1-xq)...(1-xq^m)) has x^j
        # coefficient [m+j, j], and (1-x)(1-xq)...(1-xq^(m-1)) has x^k
        # coefficient (-1)^k q^C(k,2) [m, k]; the norms are at most C(16, 8)
        bound = math.comb(16, 8)
        for m in range(9):
            for order in range(9):
                quotient = _PackedSeries(bound)
                quotient.add(0, ())
                for i in range(m + 1):
                    quotient.divide(i, order)
                assert quotient.polys() == [q_binomial(m + j, j) for j in range(order + 1)]
            product = _PackedSeries(bound)
            product.add(0, ())
            for j in range(m):
                product.times_linear(0, j)
            assert product.polys() == [(-1) ** k * q_binomial(m, k).shifted(k * (k - 1) // 2) for k in range(m + 1)]

    @staticmethod
    def times_denominator_is_numerator(m, k):
        # [m, k] prod_{i=1}^{k} (1 - q^i) = prod_{i<k} (1 - q^(m-i)), by
        # multiplication only
        lhs, rhs = q_binomial(m, k), LaurentPoly.one()
        for i in range(k):
            lhs = lhs * poly({0: 1, i + 1: -1})
            rhs = rhs * (LaurentPoly.one() - poly({m - i: 1}))
        return lhs == rhs

    @pytest.mark.parametrize("m", range(-10, 31))
    def test_binomial_times_denominator_is_numerator(self, m):
        assert all(self.times_denominator_is_numerator(m, k) for k in range(13))

    def test_large_binomial_times_denominator_is_numerator(self):
        assert self.times_denominator_is_numerator(1000, 2)
        assert self.times_denominator_is_numerator(400, 3)

    def test_multinomial_times_factorials_is_factorial(self):
        for v in [()] + list(compositions(range(1, 9))):
            lhs = q_multinomial(v)
            for part in v:
                lhs = lhs * q_factorial(part)
            assert lhs == q_factorial(sum(v))

    def test_multinomial_examples(self):
        assert q_multinomial((1, 1)) == poly({0: 1, 1: 1})
        assert q_multinomial((7,)) == LaurentPoly.one()
        assert q_multinomial((2, 1)) == poly({0: 1, 1: 1, 2: 1})
        assert q_multinomial(()) == LaurentPoly.one()

    @pytest.mark.parametrize("v", [(1.5, 1), (1, 0.5), (Fraction(3, 2),)])
    def test_multinomial_rejects_non_integer_parts(self, v):
        # int() would truncate 1.5 to 1 and return 1 + q
        with pytest.raises(ValueError, match="not an integer"):
            q_multinomial(v)

    def test_stirling_examples(self):
        assert q_stirling(0, 0) == LaurentPoly.one()
        assert not q_stirling(2, 3)
        assert not q_stirling(1, -1)
        assert q_stirling(3, 2) == poly({1: 2, 2: 1})

    @pytest.mark.parametrize("n", range(0, 8))
    def test_stirling_at_one_counts_set_partitions(self, n):
        for k in range(n + 1):
            assert q_stirling(n, k).evaluate(1) == stirling2(n, k)


class TestZsu:
    def test_darga_examples(self):
        assert darga(poly({5: 1})) == 10
        assert darga(poly({0: 1, 1: 1})) == 1
        assert darga(poly({1: 2, 2: 1})) == 3
        with pytest.raises(ValueError, match="darga undefined for zero"):
            darga(LaurentPoly.zero())

    def test_zsu_examples(self):
        assert zsu_check(LaurentPoly.zero(), 17)
        assert zsu_check(poly({0: 1, 1: 3, 2: 1}), 2)
        assert not zsu_check(poly({0: 1, 2: 1}), 1)  # darga is 2
        assert not zsu_check(poly({0: 1, 2: 1}), 2)  # dip in the middle
        assert not zsu_check(poly({0: 1, 1: -1, 2: 1}), 2)  # negative coefficient
        assert not zsu_check(poly({0: 1, 1: 2}), 1)  # not palindromic

    def test_symmetry_allows_negative_coefficients(self):
        assert is_symmetric(poly({1: -1, 2: -1}))
        assert not is_unimodal(poly({0: 1, 1: 0, 2: 1}))

    def test_atoms(self):
        assert zsu_atom(4, 3) == poly({1: 1, 2: 1, 3: 1})
        with pytest.raises(ValueError):
            zsu_atom(4, 1)


@st.composite
def zsu_polys(draw, max_darga=10):
    d = draw(st.integers(0, max_darga))
    lo = (d + 1) // 2
    coeffs = draw(
        st.lists(st.integers(0, 4), min_size=d - lo + 1, max_size=d - lo + 1)
    )
    f = LaurentPoly.zero()
    for i, c in zip(range(lo, d + 1), coeffs):
        f = f + c * zsu_atom(d, i)
    return f, d


@given(zsu_polys(), zsu_polys())
@settings(max_examples=120)
def test_zsu_closures(fd, ge):
    f, d = fd
    g, e = ge
    assert zsu_check(f, d) and zsu_check(g, e)
    if d == e:
        assert zsu_check(f + g, d)
    assert zsu_check(f * g, d + e)


@pytest.mark.parametrize("k", range(6))
def test_bivariate_delta_of_monomial(k):
    # delta(x^k) = [k] x^(k-1) on packed rows, and delta(1) = 0
    series = _PackedSeries(k)
    series.add(k, ())
    series.delta()
    assert len(series.rows) == k
    assert series == _PackedSeries.packing([LaurentPoly.zero()] * (k - 1) + [q_bracket(k)], k)


# ---------------------------------------------------------------------------
# The dense store against the sparse reference in oracles.py
# ---------------------------------------------------------------------------

# small coefficients cancel often; large ones pass 2^64
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
SPARSE = st.dictionaries(st.integers(-8, 8), COEFFS, max_size=7).map(
    lambda terms: {e: c for e, c in terms.items() if c}
)


@st.composite
def sparse_pairs(draw):
    """Two sparse polynomials; half the time the second cancels the lowest
    or the highest term of the first in their sum."""
    a, b = draw(SPARSE), draw(SPARSE)
    if a and draw(st.booleans()):
        e = draw(st.sampled_from([min(a), max(a)]))
        b[e] = -a[e]
    return a, b


def rises_then_falls(dense: list[int]) -> bool:
    return not dense or any(
        all(x <= y for x, y in zip(dense[:m], dense[1 : m + 1]))
        and all(x >= y for x, y in zip(dense[m:], dense[m + 1 :]))
        for m in range(len(dense))
    )


def assert_matches(f: LaurentPoly, ref: dict[int, int]) -> None:
    """f is the polynomial of the sparse terms ref, in every public view."""
    assert f.to_dense_dict() == sparse_dense(ref)
    assert f.items() == sorted(ref.items())
    built = LaurentPoly(ref)
    assert f == built and hash(f) == hash(built)
    assert str(f) == sparse_str(ref)
    assert LaurentPoly.from_dense_dict(f.to_dense_dict()) == f
    assert bool(f) == bool(ref)
    if ref:
        assert (f.min_exp, f.max_exp) == (min(ref), max(ref))
        assert darga(f) == min(ref) + max(ref)
    dense = sparse_dense(ref)["coeffs"]
    assert is_symmetric(f) == (dense == dense[::-1])
    assert is_unimodal(f) == rises_then_falls(dense)
    for v in (2, Fraction(-1, 3)):
        assert f.evaluate(v) == sum(c * Fraction(v) ** e for e, c in ref.items())


@given(sparse_pairs(), st.one_of(st.integers(-2, 2), COEFFS), st.integers(-9, 9))
@settings(max_examples=200)
def test_dense_store_matches_sparse_reference(pair, k, s):
    a, b = pair
    f, g = LaurentPoly(a), LaurentPoly(b)
    neg_a, neg_b = ({e: -c for e, c in x.items()} for x in (a, b))
    const = {0: k} if k else {}
    assert_matches(f, a)
    assert_matches(-g, neg_b)
    assert_matches(f + g, sparse_add(a, b))
    assert_matches(f - g, sparse_add(a, neg_b))
    assert_matches(f * g, sparse_mul(a, b))
    assert_matches(f + k, sparse_add(a, const))
    assert_matches(k + f, sparse_add(const, a))
    assert_matches(f - k, sparse_add(a, {0: -k} if k else {}))
    assert_matches(k - f, sparse_add(const, neg_a))
    assert_matches(f * k, sparse_mul(a, const))
    assert_matches(k * f, sparse_mul(const, a))
    assert_matches(f.shifted(s), {e + s: c for e, c in a.items()})
    assert_matches(f.subs_q_inverse(), {-e: c for e, c in a.items()})
    assert (f == g) == (a == b)
    assert (f == k) == (a == const)


UNITS_AND_LARGE = st.one_of(st.sampled_from([1, -1]), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))


@given(SPARSE, SPARSE, UNITS_AND_LARGE, st.integers(-9, 9))
@settings(max_examples=100)
def test_single_term_products_match_sparse_reference(a, b, c, e):
    # a single term scales the other operand's list, and q^e shares it
    f, g, m = LaurentPoly(a), LaurentPoly(b), LaurentPoly({e: c})
    term = {e: c}
    left, right = m * f, f * m
    assert_matches(left, sparse_mul(term, a))
    assert_matches(right, sparse_mul(a, term))
    assert_matches(f * c, sparse_mul(a, {0: c}))
    assert_matches(c * f, sparse_mul({0: c}, a))
    if c == 1 and a:
        assert left._coeffs is f._coeffs
    # arithmetic on the products leaves their operand as it was
    for p in (left, right):
        assert_matches(p + g, sparse_add(sparse_mul(term, a), b))
        assert_matches(p * g, sparse_mul(sparse_mul(term, a), b))
        assert_matches(-p, sparse_mul({e: -c}, a))
        assert_matches(p - p, {})
        assert_matches(p.subs_q_inverse().shifted(3), {3 - x: y for x, y in sparse_mul(term, a).items()})
    assert_matches(f, a)
    assert_matches(m, term)


@given(st.builds(LaurentPoly.dense, st.integers(-8, 8), st.lists(COEFFS, max_size=12)), st.integers(-10, 40))
@settings(max_examples=300)
def test_bracket_pass_is_the_product(p, m):
    # the window-sum pass against the convolution and the sparse reference,
    # for m <= 0 too, where [0] = 0 and [m] = -q^m [-m]
    result = p.times_bracket(m)
    assert result == p * q_bracket(m)
    assert_matches(result, sparse_mul(dict(p.items()), dict(q_bracket(m).items())))


def test_dense_constructor_trims_both_ends():
    assert LaurentPoly.dense(-2, [0, 0, 3, 0, -1, 0]).to_dense_dict() == {
        "min_exp": 0,
        "coeffs": [3, 0, -1],
    }
    assert LaurentPoly.dense(5, [0, 0]) == LaurentPoly.zero()
    assert LaurentPoly.dense(5, []).to_dense_dict() == {"min_exp": 0, "coeffs": []}
    assert (LaurentPoly.dense(-4, [1]) - LaurentPoly.dense(-4, [1])).to_dense_dict() == {
        "min_exp": 0,
        "coeffs": [],
    }


# ---------------------------------------------------------------------------
# Packed x-series rows against the sparse bivariate reference
# ---------------------------------------------------------------------------

SPARSE_BIVARIATE = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(0, 5)), COEFFS, max_size=8
).map(lambda terms: {key: c for key, c in terms.items() if c})


@st.composite
def bivariate_pairs(draw):
    """Two sparse bivariate polynomials; half the time the second cancels
    every term of one x-power of the first (the top one included) in
    their sum."""
    a, b = draw(SPARSE_BIVARIATE), draw(SPARSE_BIVARIATE)
    if a and draw(st.booleans()):
        x = draw(st.sampled_from(sorted({xe for _, xe in a})))
        b.update({key: -c for key, c in a.items() if key[1] == x})
    return a, b


def series_of_terms(terms: dict[tuple[int, int], int]) -> list[LaurentPoly]:
    """The x^k coefficients of the sparse terms {(q exponent, x exponent): c},
    up to the highest power of x they have."""
    top = max((xe for _, xe in terms), default=-1)
    return [LaurentPoly({qe: c for (qe, xe), c in terms.items() if xe == k}) for k in range(top + 1)]


def assert_series_is(polys: list[LaurentPoly], terms: dict[tuple[int, int], int]) -> None:
    """polys, less its zero tail, is the canonical list of x^k coefficients
    of the sparse terms."""
    polys = list(polys)
    while polys and not polys[-1]:
        polys.pop()
    assert polys == series_of_terms(terms)


@given(bivariate_pairs())
@settings(max_examples=200)
def test_bivariate_store_matches_sparse_reference(pair):
    # packed with the least bound that holds every coefficient read, the
    # rows unpack to the sparse terms, compare equal exactly when the terms
    # do, take the other polynomial added row by row to the sparse sum, and
    # delta is the term-by-term reference
    a, b = pair
    total = sparse_add(a, b)
    derived = sparse_bivariate_delta(total)
    bound = max((abs(c) for t in (a, b, total, derived) for c in t.values()), default=0)
    f, g = (_PackedSeries.packing(series_of_terms(t), bound) for t in (a, b))
    assert_series_is(f.polys(), a)
    assert (f == g) == (a == b)
    for k, p in enumerate(series_of_terms(b)):
        f.add(k, ((p, 1),))
    assert_series_is(f.polys(), total)
    assert f == _PackedSeries.packing(series_of_terms(total), bound)
    f.delta()
    assert_series_is(f.polys(), derived)


MONOMIAL_COEFFS = st.one_of(st.sampled_from([1, -1]), st.integers(-(2**70), 2**70).filter(bool))


@given(SPARSE_BIVARIATE, st.integers(-6, 6), MONOMIAL_COEFFS, st.integers(-6, 6), MONOMIAL_COEFFS, st.integers(0, 7))
@settings(max_examples=200)
def test_linear_factor_passes_match_products(terms, e, c, m, cm, order):
    # the oracle passes, one per linear factor: times a + b x against the
    # dict product by those two terms, and over 1 - x q^m against the
    # truncated dict product by sum_j q^(mj) x^j; the series include zero
    coeffs = series_of_terms(terms)
    product = series_times_linear(coeffs, LaurentPoly({e: c}), LaurentPoly({m: cm}))
    assert_series_is(product, sparse_bivariate_mul(terms, {(e, 0): c, (m, 1): cm}))
    geometric = {(m * j, j): 1 for j in range(order + 1)}
    quotient = series_divided_by_one_minus(coeffs, m, order)
    truncated = {key: v for key, v in sparse_bivariate_mul(terms, geometric).items() if key[1] <= order}
    assert_series_is(quotient, truncated)
    undone = series_times_linear(quotient, LaurentPoly.one(), LaurentPoly({m: -1}))
    assert_series_is(undone[: order + 1], {key: v for key, v in terms.items() if key[1] <= order})


def test_linear_factor_passes_cancel_to_canonical_form():
    # (1 - x q^2)(1 + x q^2 + x^2 q^4) = 1 - x^3 q^6: the middle coefficients
    # vanish; q x^0 + (-1 + q) x^1 times 1 - x leaves -1 at x^1, its q
    # cancelled; by the oracle passes and on packed rows alike
    geometric = [LaurentPoly({2 * j: 1}) for j in range(3)]
    cases = [
        (geometric, (0, 2), [LaurentPoly.one(), 0, 0, LaurentPoly({6: -1})]),
        (
            [LaurentPoly({1: 1}), LaurentPoly({0: -1, 1: 1})],
            (0, 0),
            [LaurentPoly({1: 1}), LaurentPoly({0: -1}), LaurentPoly({0: 1, 1: -1})],
        ),
    ]
    for coeffs, (ea, eb), product in cases:
        assert series_times_linear(coeffs, LaurentPoly({ea: 1}), LaurentPoly({eb: -1})) == product
        packed = _PackedSeries.packing(coeffs, 8)
        packed.times_linear(ea, eb)
        assert packed.polys() == product
    assert series_divided_by_one_minus([LaurentPoly.one()], 2, 2) == geometric
    packed = _PackedSeries.packing([LaurentPoly.one()], 8)
    packed.divide(2, 2)
    assert packed.polys() == geometric


# coefficients up to 2^70, and the largest signed digit of each byte width
EDGE_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([sign * (2 ** (8 * t - 1) - 1) for t in range(1, 10) for sign in (1, -1)]),
    st.integers(-(2**70), 2**70),
)
SERIES_ROWS = st.lists(st.builds(LaurentPoly.dense, st.integers(-6, 6), st.lists(EDGE_COEFFS, max_size=6)), max_size=5)
SERIES_PASSES = st.lists(
    st.one_of(
        st.tuples(st.just("times"), st.integers(-6, 6), st.integers(-6, 6), st.none() | st.integers(0, 7)),
        st.tuples(st.just("divide"), st.integers(0, 6), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=3,
)


@given(SERIES_ROWS, SERIES_PASSES)
@settings(max_examples=300)
def test_packed_series_passes_match_the_oracles(rows, passes):
    # negative exponents and zero rows, and m >= 0 as in every caller; the
    # bound is the least that holds every coefficient packed or read, so
    # digits reach the width's limit, while the ones in between may overflow it
    expected = rows
    for step in passes:
        if step[0] == "times":
            _, ea, eb, order = step
            expected = series_times_linear(expected, LaurentPoly({ea: 1}), LaurentPoly({eb: -1}))
            expected = expected if order is None else expected[: order + 1]
        else:
            expected = series_divided_by_one_minus(expected, *step[1:])
    bound = max((abs(c) for p in rows + expected for _, c in p.items()), default=0)
    packed = _PackedSeries.packing(rows, bound)
    for step in passes:
        getattr(packed, step[0] if step[0] == "divide" else "times_linear")(*step[1:])
    assert packed.polys() == expected
    assert packed == _PackedSeries.packing(expected + [LaurentPoly.zero()], bound)
    assert packed != _PackedSeries.packing(expected + [LaurentPoly.one()], bound)


SERIES_FACTOR = st.builds(LaurentPoly.dense, st.integers(-6, 6), st.lists(COEFFS, max_size=4))
FACTOR_POWERS = st.lists(st.tuples(SERIES_FACTOR, st.integers(0, 3)), max_size=3)


@given(SERIES_ROWS, st.integers(0, 5), FACTOR_POWERS, st.integers(-(2**20), 2**20))
@settings(max_examples=200)
def test_add_takes_a_product_of_powers(rows, k, factors, times):
    # add(k, ((p, e), ...), times) adds times prod p^e to the x^k row, the
    # lowest exponent of the product falling below the shared one or not
    expected = rows + [LaurentPoly.zero()] * (k + 1 - len(rows))
    term = LaurentPoly.dense(0, [times])
    for p, e in factors:
        for _ in range(e):
            term = term * p
    expected[k] = expected[k] + term
    bound = max((abs(c) for p in rows + expected for _, c in p.items()), default=0)
    packed = _PackedSeries.packing(rows, bound)
    packed.add(k, factors, times)
    assert packed.polys() == expected


@given(SERIES_ROWS, SERIES_ROWS, st.integers(0, 6), SERIES_FACTOR, st.integers(0, 7))
@settings(max_examples=200)
def test_add_series_adds_a_moved_multiple(rows, other, k, factor, order):
    # add_series(k, other, factor, order) adds x^k factor other, truncated at
    # x^order, row by row; the lowest exponent falls below the shared one or not
    moved = other[: max(order + 1 - k, 0)]
    expected = rows + [LaurentPoly.zero()] * (k + len(moved) - len(rows))
    for j, r in enumerate(moved, k):
        expected[j] = expected[j] + factor * r
    bound = max((abs(c) for p in rows + other + expected + [factor] for _, c in p.items()), default=0)
    packed = _PackedSeries.packing(rows, bound)
    packed.add_series(k, _PackedSeries.packing(other, bound), factor, order)
    assert packed.polys() == expected
    with pytest.raises(ValueError, match="different widths"):
        packed.add_series(k, _PackedSeries.packing(other, 2 ** _kronecker_width(bound)), factor, order)


def test_constants_hash_as_their_ints():
    # a constant polynomial equals its int, so a set holds one of the two
    for c in (0, 1, -1, 2**70):
        p = LaurentPoly.dense(0, [c])
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert {LaurentPoly.one(), 1} == {1} and {LaurentPoly.zero(), 0} == {0}


@given(
    SPARSE,
    st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**40), 2**40),
        st.fractions(max_denominator=60),
        st.fractions(min_value=-1, max_value=1, max_denominator=2**30),
    ),
)
@settings(max_examples=300)
def test_evaluate_matches_powers_oracle(terms, value):
    # Horner's rule against the sum of Fraction powers: negative exponents,
    # Fraction values, coefficients up to 2^80, and the int/Fraction type
    f = LaurentPoly(terms)
    try:
        expected = evaluate_by_powers(f, value)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.evaluate(value)
        return
    got = f.evaluate(value)
    assert got == expected and type(got) is type(expected)


@given(st.lists(COEFFS, max_size=90), st.lists(COEFFS, max_size=90), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=100)
def test_kronecker_product_matches_the_laurent_product(a, b, ea, eb):
    # packed at a width that holds the product's coefficients, an integer
    # product is the polynomial product; the signed digits of short values
    # unpack one by one, those of values past 4096 bits through their bytes
    f, g = LaurentPoly.dense(ea, a), LaurentPoly.dense(eb, b)
    width = _kronecker_width(max(_l1_norm(f), _l1_norm(g), _l1_norm(f) * _l1_norm(g)))
    lo_f, lo_g = f.to_dense_dict()["min_exp"], g.to_dense_dict()["min_exp"]
    assert _unpack(lo_f, _pack(f, width), width) == f
    assert _unpack(lo_f + lo_g, _pack(f, width) * _pack(g, width), width) == f * g


@given(st.lists(COEFFS, max_size=90), st.integers(-9, 9), st.lists(st.integers(0, 2), min_size=1, max_size=8))
@settings(max_examples=100)
def test_pack_remembers_only_its_last_width(coeffs, e, picks):
    # one polynomial packed at interleaved widths, the digit-by-digit and
    # the bytes path among them, gives what a fresh equal polynomial
    # packs to each time, and packing changes none of its public views
    f = LaurentPoly.dense(e, coeffs)
    size = max(len(f.to_dense_dict()["coeffs"]), 1)
    short = _kronecker_width(max(map(abs, coeffs), default=0))
    # past _SHORT_BITS = 4096 bits in all, a value packs through its bytes
    long = max(short, (4096 // size + 8) // 8 * 8)
    assert long * size > 4096
    before = (hash(f), repr(f))
    for width in [(short, long, short + 8)[p] for p in picks]:
        assert _pack(f, width) == _pack(LaurentPoly.dense(e, coeffs), width)
        assert f == LaurentPoly.dense(e, coeffs) and (hash(f), repr(f)) == before
