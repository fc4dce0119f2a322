"""Exact Laurent-polynomial arithmetic in q and q-combinatorial primitives.

Everything here is integer-exact: coefficients are arbitrary-precision
Python ints, and the one division performed (a q-binomial's numerator by
the factors 1 - q^i, as running sums) checks that it leaves no
remainder.  All values are immutable after construction and every
function is pure, so the whole module is safe for concurrent use.

The main value type is :class:`LaurentPoly`, a sparse polynomial in q
allowing negative exponents.  On top of it live the q-bracket
[k] = (1-q^k)/(1-q), q-factorials, q-binomials (with the standard
extension to negative numerators), q-multinomials, q-Stirling numbers of
the second kind, and the symmetry/unimodality analyzer ``zsu_check``.

:class:`BivariatePoly` is a two-variable companion (Laurent in q,
polynomial in a second formal symbol z); it is used for identities where
z stands for q^x or for a series variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping


class IdentityViolation(Exception):
    """A computed identity or invariant does not hold.  Checks raise it
    explicitly, so ``python -O`` cannot strip them, and the suites turn
    it into a FAIL line carrying its message."""


class LaurentPoly:
    """A Laurent polynomial in q with integer coefficients.

    Stored sparsely as exponent -> coefficient with no zero
    coefficients retained (canonical form).  The zero polynomial has an
    empty coefficient map.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    data[int(e)] = int(c)
        self._coeffs = data

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(coeff: int, exp: int = 0) -> "LaurentPoly":
        """coeff * q^exp."""
        return LaurentPoly({exp: coeff})

    @staticmethod
    def from_dense_dict(obj: Mapping) -> "LaurentPoly":
        """Inverse of :meth:`to_dense_dict`."""
        lo = int(obj["min_exp"])
        return LaurentPoly({lo + i: c for i, c in enumerate(obj["coeffs"])})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no minimum exponent")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no maximum exponent")
        return max(self._coeffs)

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self):
        return self._coeffs.items()

    def dense_coeffs(self) -> tuple[int, list[int]]:
        """(min_exp, dense coefficient list up to max_exp); (0, []) if zero."""
        if not self._coeffs:
            return 0, []
        lo, hi = self.min_exp, self.max_exp
        return lo, [self._coeffs.get(e, 0) for e in range(lo, hi + 1)]

    def to_dense_dict(self) -> dict:
        """Wire form: {"min_exp": m, "coeffs": [...]} with a nonzero last entry."""
        lo, dense = self.dense_coeffs()
        return {"min_exp": lo, "coeffs": dense}

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = data
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {e: -c for e, c in self._coeffs.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            out = LaurentPoly.__new__(LaurentPoly)
            out._coeffs = {e: c * other for e, c in self._coeffs.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        data: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = data.get(e, 0) + ca * cb
                if s:
                    data[e] = s
                else:
                    del data[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = data
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the Laurent ring")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, s: int) -> "LaurentPoly":
        """Multiply by q^s."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {e + s: c for e, c in self._coeffs.items()}
        return out

    def subs_q_inverse(self) -> "LaurentPoly":
        """Substitute q -> 1/q (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {-e: c for e, c in self._coeffs.items()}
        return out

    def evaluate(self, value):
        """Evaluate at q = value exactly (int or Fraction); ints stay ints."""
        acc = Fraction(0)
        v = Fraction(value)
        for e, c in self._coeffs.items():
            acc += c * v ** e
        return int(acc) if acc.denominator == 1 else acc

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if abs(c) == 1 else f"{abs(c)}*{qp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


class BivariatePoly:
    """Integer polynomial in two symbols: Laurent in q, ordinary in z.

    The second symbol has no fixed meaning: identities use it for the
    formal power q^x (so [x+m] appears as (1 - z*q^m)/(1-q)) or as a
    plain series variable.  A power series in z is held truncated: after
    :meth:`truncated` it is exact up to and including z^order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        data = {}
        if coeffs:
            for key, c in coeffs.items():
                if c:
                    data[(int(key[0]), int(key[1]))] = int(c)
        self._coeffs = data

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly()

    @staticmethod
    def one() -> "BivariatePoly":
        return BivariatePoly({(0, 0): 1})

    @staticmethod
    def from_laurent(p: LaurentPoly, z_exp: int = 0) -> "BivariatePoly":
        return BivariatePoly({(e, z_exp): c for e, c in p.items()})

    def coefficient(self, k: int) -> LaurentPoly:
        """The z^k coefficient; zero past the degree."""
        return LaurentPoly({qe: c for (qe, ze), c in self._coeffs.items() if ze == k})

    def truncated(self, order: int) -> "BivariatePoly":
        """Drop every term above z^order."""
        out = BivariatePoly.__new__(BivariatePoly)
        out._coeffs = {key: c for key, c in self._coeffs.items() if key[1] <= order}
        return out

    def delta(self) -> "BivariatePoly":
        """The q-difference operator (F(zq) - F(z)) / (zq - z): it maps
        a_k z^k to [k] a_k z^(k-1), so a series exact up to z^order
        comes out exact up to z^(order-1)."""
        data: dict[tuple[int, int], int] = {}
        for (qe, ze), c in self._coeffs.items():
            # [ze] = 1 + q + ... + q^(ze-1)
            for i in range(ze):
                key = (qe + i, ze - 1)
                data[key] = data.get(key, 0) + c
        return BivariatePoly(data)

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        data = dict(self._coeffs)
        for k, c in other._coeffs.items():
            s = data.get(k, 0) + c
            if s:
                data[k] = s
            else:
                del data[k]
        out = BivariatePoly.__new__(BivariatePoly)
        out._coeffs = data
        return out

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        data: dict[tuple[int, int], int] = {}
        for (qa, za), ca in self._coeffs.items():
            for (qb, zb), cb in other._coeffs.items():
                k = (qa + qb, za + zb)
                s = data.get(k, 0) + ca * cb
                if s:
                    data[k] = s
                else:
                    del data[k]
        out = BivariatePoly.__new__(BivariatePoly)
        out._coeffs = data
        return out

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        if not self._coeffs:
            return "BivariatePoly(0)"
        terms = [f"{c}*q^{qe}*z^{ze}" for (qe, ze), c in sorted(self._coeffs.items())]
        return "BivariatePoly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_bracket(k: int) -> LaurentPoly:
    """[k] = (1-q^k)/(1-q) in expanded form.

    For k >= 0 this is 1 + q + ... + q^(k-1); for k < 0 it is
    -(q^-1 + q^-2 + ... + q^k).
    """
    if k >= 0:
        return LaurentPoly({i: 1 for i in range(k)})
    return LaurentPoly({i: -1 for i in range(k, 0)})


@lru_cache(maxsize=None)
def q_factorial(k: int) -> LaurentPoly:
    """[k]! = [1][2]...[k]; [0]! = 1."""
    if k < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    if k == 0:
        return LaurentPoly.one()
    return q_factorial(k - 1) * q_bracket(k)


@lru_cache(maxsize=None)
def q_binomial(m: int, k: int) -> LaurentPoly:
    """Gaussian binomial coefficient, extended to negative numerators m.

    For m >= k it is prod_{i<k} (1 - q^(m-i)) / prod_{i=1}^{k} (1 - q^i): the
    dense numerator is divided by each 1 - q^i as a power series, by the
    running sum c_j += c_(j-i), and a nonzero coefficient above the
    quotient's degree k(m-k) raises IdentityViolation.  For 0 <= m < k it
    is 0; for m < 0 it is (-1)^k q^(km - C(k,2)) [k-m-1, k].
    """
    if k < 0:
        raise ValueError("lower index of a q-binomial must be nonnegative")
    if k == 0:
        return LaurentPoly.one()
    if m < 0:
        return (q_binomial(k - m - 1, k) * (-1) ** k).shifted(k * m - k * (k - 1) // 2)
    if m < k:
        return LaurentPoly.zero()
    coeffs = [1] + [0] * (k * m - k * (k - 1) // 2)
    for a in range(m - k + 1, m + 1):
        for j in range(len(coeffs) - 1, a - 1, -1):
            coeffs[j] -= coeffs[j - a]
    for i in range(1, k + 1):
        for j in range(i, len(coeffs)):
            coeffs[j] += coeffs[j - i]
    top = k * (m - k)
    if any(coeffs[top + 1 :]):
        raise IdentityViolation(f"[{m}, {k}] left a remainder above degree {top}")
    return LaurentPoly(dict(enumerate(coeffs[: top + 1])))


def q_multinomial(v: Iterable[int]) -> LaurentPoly:
    """[sum(v)]! / prod [v_i]!, as the product of the q-binomials
    [v_1 + ... + v_i, v_i]."""
    parts = [int(x) for x in v]
    if any(x < 0 for x in parts):
        raise ValueError("multinomial parts must be nonnegative")
    result, total = LaurentPoly.one(), 0
    for x in parts:
        total += x
        result = result * q_binomial(total, x)
    return result


@lru_cache(maxsize=None)
def q_stirling(n: int, k: int) -> LaurentPoly:
    """q-Stirling number of the second kind S_{n,k}(q).

    Defined by S_{n+1,k} = q^(k-1) S_{n,k-1} + [k] S_{n,k} with
    S_{0,0} = 1 and S_{n,k} = 0 for k < 0 or k > n.
    """
    if n < 0:
        raise ValueError("q-Stirling numbers need n >= 0")
    if k < 0 or k > n:
        return LaurentPoly.zero()
    if n == 0:
        return LaurentPoly.one()
    return q_stirling(n - 1, k - 1).shifted(k - 1) + q_bracket(k) * q_stirling(n - 1, k)


# ---------------------------------------------------------------------------
# Symmetry / unimodality analysis
# ---------------------------------------------------------------------------


def darga(f: LaurentPoly) -> int:
    """Minimum plus maximum exponent of a nonzero polynomial."""
    if f.is_zero:
        raise ValueError("darga undefined for zero")
    return f.min_exp + f.max_exp


def is_symmetric(f: LaurentPoly) -> bool:
    """Palindromic coefficient sequence (vacuously true for zero)."""
    if f.is_zero:
        return True
    _, dense = f.dense_coeffs()
    return dense == dense[::-1]


def is_unimodal(f: LaurentPoly) -> bool:
    """Dense coefficients rise then fall (zeros in the middle count)."""
    if f.is_zero:
        return True
    _, dense = f.dense_coeffs()
    i = 0
    while i + 1 < len(dense) and dense[i] <= dense[i + 1]:
        i += 1
    while i + 1 < len(dense) and dense[i] >= dense[i + 1]:
        i += 1
    return i == len(dense) - 1

def zsu_check(f: LaurentPoly, d: int) -> bool:
    """True iff f is zero, or nonnegative, symmetric, unimodal with darga d."""
    if f.is_zero:
        return True
    if any(c < 0 for _, c in f.items()):
        return False
    return is_symmetric(f) and is_unimodal(f) and darga(f) == d


def zsu_atom(d: int, i: int) -> LaurentPoly:
    """The building block q^(d-i) + q^(d-i+1) + ... + q^i, for d/2 <= i <= d.

    Every polynomial that passes ``zsu_check(f, d)`` is a nonnegative
    integer combination of these atoms, which makes them the natural
    generators for closure property tests.
    """
    if not (2 * i >= d >= 0 and i <= d):
        raise ValueError("atom needs d/2 <= i <= d")
    return LaurentPoly({e: 1 for e in range(d - i, i + 1)})
