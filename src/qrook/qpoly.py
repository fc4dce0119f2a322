"""Exact Laurent-polynomial arithmetic in q and q-combinatorial primitives.

Everything here is integer-exact: coefficients are arbitrary-precision
Python ints, and the one division performed (a q-binomial's numerator by
the factors 1 - q^i, as running sums) checks that it leaves no
remainder.  All values are immutable after construction and every
function is pure, so the whole module is safe for concurrent use.

The main value type is :class:`LaurentPoly`, a polynomial in q allowing
negative exponents, stored as its lowest exponent and the coefficients
from there up to the highest, zeros included: the paper's polynomials
have no gaps in their exponents.  Its ring operations are +, - and *,
with no power operator, and zero is its one falsy value.  On top of it
live the q-bracket [k] = (1-q^k)/(1-q), q-factorials, q-binomials (with
the standard extension to negative numerators), q-multinomials,
q-Stirling numbers of the second kind, and the symmetry/unimodality
analyzer ``zsu_check``.

:class:`BivariatePoly` is a two-variable companion (Laurent in q,
polynomial in a second formal symbol z) built by ``BivariatePoly.series``
from its z-coefficients, each a :class:`LaurentPoly`, and stored as their
tuple, so LaurentPoly's product is the only coefficient arithmetic; it
is used for identities where z stands for q^x or for a series variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import add
from typing import Iterable, Mapping, Sequence


class IdentityViolation(Exception):
    """A computed identity or invariant does not hold.  Checks raise it
    explicitly, so ``python -O`` cannot strip them, and the suites turn
    it into a FAIL line carrying its message."""


class LaurentPoly:
    """A Laurent polynomial in q with integer coefficients.

    Stored densely as min_exp and the coefficients of q^min_exp, ...,
    q^max_exp, a list whose first and last entries are nonzero (canonical
    form); zero is min_exp 0 and the empty list.  The list is never
    mutated, so polynomials share it.  Not a tuple: short-lived products
    fill CPython's free lists of short tuples, which raised the peak
    memory of the verification suites by a seventh.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms = {_integral(e): _integral(c) for e, c in coeffs.items() if c} if coeffs else {}
        lo, hi = min(terms, default=0), max(terms, default=-1)
        self._lo, self._coeffs = lo, [terms.get(e, 0) for e in range(lo, hi + 1)]

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def dense(min_exp: int, coeffs: Sequence[int]) -> "LaurentPoly":
        """sum_i coeffs[i] q^(min_exp + i); zeros at either end are dropped."""
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        return _canonical(min_exp + lo, list(coeffs[lo:hi])) if hi else _ZERO

    @staticmethod
    def from_dense_dict(obj: Mapping) -> "LaurentPoly":
        """Inverse of :meth:`to_dense_dict`; ValueError on a non-integer."""
        return LaurentPoly.dense(_integral(obj["min_exp"]), [_integral(c) for c in obj["coeffs"]])

    # -- basic queries ----------------------------------------------------

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no minimum exponent")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no maximum exponent")
        return self._lo + len(self._coeffs) - 1

    def coefficient(self, exp: int) -> int:
        i = exp - self._lo
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def items(self) -> list[tuple[int, int]]:
        """The nonzero (exponent, coefficient) pairs, exponents ascending."""
        return [(e, c) for e, c in enumerate(self._coeffs, self._lo) if c]

    def to_dense_dict(self) -> dict:
        """Wire form: {"min_exp": m, "coeffs": [...]} with a nonzero last entry."""
        return {"min_exp": self._lo, "coeffs": list(self._coeffs)}

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other
        lo = min(self._lo, other._lo)
        out = [0] * (max(self._lo + len(a), other._lo + len(b)) - lo)
        i = self._lo - lo
        out[i : i + len(a)] = a
        j = other._lo - lo
        out[j : j + len(b)] = map(add, out[j : j + len(b)], b)
        return LaurentPoly.dense(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self._lo, [-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _canonical(self._lo, [c * other for c in self._coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        lo = self._lo + other._lo
        if len(a) == 1:
            # a single term scales the other list, and q^e shares it
            c = a[0]
            return _canonical(lo, b if c == 1 else [c * cb for cb in b])
        # the ends are products of nonzero ints, so the result is canonical
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _canonical(lo, out)

    __rmul__ = __mul__

    def shifted(self, s: int) -> "LaurentPoly":
        """Multiply by q^s."""
        return _canonical(self._lo + s, self._coeffs) if self._coeffs else _ZERO

    def subs_q_inverse(self) -> "LaurentPoly":
        """Substitute q -> 1/q (negate every exponent)."""
        return _canonical(-self.max_exp, self._coeffs[::-1]) if self._coeffs else _ZERO

    def evaluate(self, value):
        """Evaluate at q = value exactly (int or Fraction); ints stay ints.

        Horner's rule over the dense list, times value^min_exp as a
        Fraction when min_exp is negative, which raises ZeroDivisionError
        at 0."""
        v = value if isinstance(value, int) else Fraction(value)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * v + c
        acc *= v**self._lo if self._lo >= 0 else Fraction(v) ** self._lo
        return int(acc) if acc.denominator == 1 else acc

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._lo == 0 and self._coeffs == ([other] if other else [])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._coeffs == other._coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self._lo == 0 and len(self._coeffs) <= 1:
            return hash(sum(self._coeffs))
        return hash((self._lo, tuple(self._coeffs)))

    def __bool__(self):
        return bool(self._coeffs)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
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


def _integral(x) -> int:
    """x as an int; ValueError when x is not an integer, where int() would
    truncate a float or a Fraction."""
    value = int(x)
    if value != x:
        raise ValueError(f"{x!r} is not an integer")
    return value


def _canonical(lo: int, coeffs: list[int]) -> LaurentPoly:
    """The polynomial of a coefficient list already in canonical form."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._lo, out._coeffs = lo, coeffs
    return out


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


class BivariatePoly:
    """Integer polynomial in two symbols: Laurent in q, ordinary in z.

    Stored as the tuple of its z-coefficients, the LaurentPoly values of
    z^0, ..., z^degree, whose last entry is nonzero (canonical form);
    zero is the empty tuple.  The second symbol has no fixed meaning:
    identities use it for the formal power q^x (so [x+m] appears as
    (1 - z*q^m)/(1-q)) or as a plain series variable.  A power series in
    z is held truncated: after :meth:`truncated` it is exact up to and
    including z^order.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, *args, **kwargs):
        raise TypeError("a BivariatePoly is built by BivariatePoly.series from its z-coefficients")

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly.series(())

    @staticmethod
    def one() -> "BivariatePoly":
        return BivariatePoly.series((_ONE,))

    @staticmethod
    def series(polys: Iterable[LaurentPoly]) -> "BivariatePoly":
        """sum_k polys[k] z^k; zeros past the last nonzero entry are dropped."""
        coeffs = list(polys)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out = BivariatePoly.__new__(BivariatePoly)
        out._coeffs = tuple(coeffs)
        return out

    @staticmethod
    def from_laurent(p: LaurentPoly, z_exp: int = 0) -> "BivariatePoly":
        """p * z^z_exp; zero at any power of z is zero."""
        if p and z_exp < 0:
            raise ValueError("a BivariatePoly has no negative powers of z")
        return BivariatePoly.series((_ZERO,) * z_exp + (p,))

    def coefficient(self, k: int) -> LaurentPoly:
        """The z^k coefficient; zero past the degree."""
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else _ZERO

    def truncated(self, order: int) -> "BivariatePoly":
        """Drop every term above z^order."""
        return BivariatePoly.series(self._coeffs[: max(order + 1, 0)])

    def delta(self) -> "BivariatePoly":
        """The q-difference operator (F(zq) - F(z)) / (zq - z): it maps
        a_k z^k to [k] a_k z^(k-1), so a series exact up to z^order
        comes out exact up to z^(order-1)."""
        return BivariatePoly.series(q_bracket(k) * a for k, a in enumerate(self._coeffs) if k)

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return BivariatePoly.series(
            a + b for a, b in zip_longest(self._coeffs, other._coeffs, fillvalue=_ZERO)
        )

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] = out[j] + x * y
        return BivariatePoly.series(out)

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        terms = sorted((qe, ze, c) for ze, p in enumerate(self._coeffs) for qe, c in p.items())
        body = " + ".join(f"{c}*q^{qe}*z^{ze}" for qe, ze, c in terms)
        return f"BivariatePoly({body or 0})"


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
        return LaurentPoly.dense(0, [1] * k)
    return LaurentPoly.dense(k, [-1] * -k)


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
    return LaurentPoly.dense(0, coeffs[: top + 1])


def q_multinomial(v: Iterable[int]) -> LaurentPoly:
    """[sum(v)]! / prod [v_i]!, as the product of the q-binomials
    [v_1 + ... + v_i, v_i]."""
    parts = [_integral(x) for x in v]
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
    if not f:
        raise ValueError("darga undefined for zero")
    return f.min_exp + f.max_exp


def is_symmetric(f: LaurentPoly) -> bool:
    """Palindromic coefficient sequence (vacuously true for zero)."""
    return f._coeffs == f._coeffs[::-1]


def is_unimodal(f: LaurentPoly) -> bool:
    """Dense coefficients rise then fall (zeros in the middle count)."""
    dense = f._coeffs
    i = 0
    while i + 1 < len(dense) and dense[i] <= dense[i + 1]:
        i += 1
    while i + 1 < len(dense) and dense[i] >= dense[i + 1]:
        i += 1
    return i >= len(dense) - 1


def zsu_check(f: LaurentPoly, d: int) -> bool:
    """True iff f is zero, or nonnegative, symmetric, unimodal with darga d."""
    if not f:
        return True
    if any(c < 0 for c in f._coeffs):
        return False
    return is_symmetric(f) and is_unimodal(f) and darga(f) == d
