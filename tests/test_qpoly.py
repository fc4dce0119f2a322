import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrook.boards import compositions
from qrook.qpoly import (
    BivariatePoly,
    LaurentPoly,
    darga,
    is_symmetric,
    is_unimodal,
    q_binomial,
    q_bracket,
    q_factorial,
    q_multinomial,
    q_stirling,
    zsu_atom,
    zsu_check,
)

from oracles import partitions_in_box_gf, stirling2


def poly(d):
    return LaurentPoly(d)


class TestLaurentRing:
    def test_canonical_form_drops_zeros(self):
        assert poly({0: 1, 2: 0}) == poly({0: 1})
        assert poly({3: 0}).is_zero

    def test_arithmetic(self):
        f = poly({0: 1, 1: 2})
        g = poly({-1: 1, 1: -2})
        assert f + g == poly({-1: 1, 0: 1})
        assert f - f == LaurentPoly.zero()
        assert f * g == poly({-1: 1, 0: 2, 1: -2, 2: -4})
        assert (f * 0).is_zero
        assert 3 * f == poly({0: 3, 1: 6})
        assert f**3 == f * f * f

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

    def test_dense_serialization_round_trip(self):
        f = poly({-2: 3, 0: -1, 1: 4})
        obj = f.to_dense_dict()
        assert obj == {"min_exp": -2, "coeffs": [3, 0, -1, 4]}
        assert LaurentPoly.from_dense_dict(obj) == f
        assert LaurentPoly.zero().to_dense_dict() == {"min_exp": 0, "coeffs": []}

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
        assert q_bracket(0).is_zero
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
        assert q_binomial(3, 5).is_zero
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

    def test_binomial_theorem(self):
        # prod_{j=0}^{m-1} (1 + x q^j) = sum_k [m,k] q^(C(k,2)) x^k
        for m in range(9):
            lhs = BivariatePoly.one()
            for j in range(m):
                lhs = lhs * BivariatePoly({(0, 0): 1, (j, 1): 1})
            rhs = BivariatePoly.zero()
            for k in range(m + 1):
                rhs = rhs + BivariatePoly.from_laurent(
                    q_binomial(m, k).shifted(k * (k - 1) // 2), z_exp=k
                )
            assert lhs == rhs

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

    def test_stirling_examples(self):
        assert q_stirling(0, 0) == LaurentPoly.one()
        assert q_stirling(2, 3).is_zero
        assert q_stirling(1, -1).is_zero
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


def test_bivariate_coefficient_past_degree_is_zero():
    a = BivariatePoly({(0, 0): 1, (-1, 1): -2, (2, 2): 3})
    assert a.coefficient(1) == LaurentPoly({-1: -2})
    assert a.coefficient(3).is_zero and a.coefficient(10).is_zero


@pytest.mark.parametrize("k", range(6))
def test_bivariate_delta_of_monomial(k):
    # delta(z^k) = [k] z^(k-1), and delta(1) = 0
    assert BivariatePoly({(0, k): 1}).delta() == BivariatePoly.from_laurent(q_bracket(k), k - 1)
