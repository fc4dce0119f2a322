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

The private Kronecker helpers (``_pack``, ``_unpack``) hold a polynomial
as one integer at q = 2^width, so that integer products and shifts are
polynomial products and shifts.  On them runs the one x-series kernel,
``_PackedSeries``: a polynomial or truncated series in x held as packed
rows sharing one lowest exponent, added to by products of polynomial
powers or by shifted multiples of another series, multiplied by a
linear factor q^a - x q^b, divided by 1 - x q^m, or taken through the
q-difference operator, one pass at a time, forming no LaurentPoly
product.  It is the library's one route
for series in x: ``placements.eq24_divided``, the ``defining`` hit
route, ``placements.factorization_check``, ``ffmat.corollary2_check``,
route A of ``verify.phi_series`` and ``verify.lemma3_delta_check`` run
their passes on it.  Those callers give it polynomials and the l1 bound
they prove for its rows, and it picks the width, so the packed form is
known to this module alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
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

    Since the list never changes, ``_pack`` remembers on the polynomial
    the last (width, packed integer) it computed for it, in the slot
    ``_packed``, unset until then.  The memo is bounded: one integer of
    width bits per coefficient, per polynomial, and it is dropped with its
    polynomial, so only the caches that hold a polynomial (the
    q-binomials, say) keep its memo across calls, and clearing them drops
    it too.  Equality, hashing and the printed forms read the coefficients
    alone.
    """

    __slots__ = ("_lo", "_coeffs", "_packed")

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
        return _canonical(lo, out) if out[0] and out[-1] else LaurentPoly.dense(lo, out)

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

    def times_bracket(self, m: int) -> "LaurentPoly":
        """Multiply by [m] in one linear pass: for m > 0, coefficient j of
        p [m] is the window sum p_(j-m+1) + ... + p_j, a difference of two
        prefix sums of p; [0] = 0, and [m] = -q^m [-m] for m < 0.  The ends
        of the result are p's, so it is canonical."""
        if not self._coeffs or not m:
            return _ZERO
        pad = abs(m) - 1
        sums = list(accumulate(self._coeffs, initial=0))
        upper = sums[1:] + sums[-1:] * pad
        lower = [0] * pad + sums[:-1]
        if m > 0:
            return _canonical(self._lo, list(map(sub, upper, lower)))
        return _canonical(self._lo + m, list(map(sub, lower, upper)))

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


# Kronecker substitution: a polynomial as one integer at q = 2^width, so
# that integer products and shifts are polynomial products and shifts.
# Coefficients are signed digits of magnitude below 2^(width - 1).  _pack
# keeps its last result on the polynomial as (width, integer): eq24 packs
# the same cached q-binomials spec after spec, at a few widths.  width
# is a multiple of 8, so a long packed value converts through its bytes in
# linear time; a short one goes digit by digit, quadratic in its length but
# up to twice as fast on the short rows of small boards.  Timed at widths
# 16 to 152, the two cross between 2048 and 8192 bits.

_SHORT_BITS = 4096


def _l1_norm(p: LaurentPoly) -> int:
    """The sum of |coefficient|; a product's is at most its factors' product."""
    return sum(map(abs, p._coeffs))


def _kronecker_width(bound: int) -> int:
    """The least multiple of 8 that holds signed digits of magnitude up to bound."""
    return (bound.bit_length() + 8) // 8 * 8


def _pack(p: LaurentPoly, width: int) -> int:
    """The coefficients of p, from q^min_exp up, at q = 2^width; the last
    width packed at is remembered on p (see :class:`LaurentPoly`)."""
    memo = getattr(p, "_packed", None)
    if memo is not None and memo[0] == width:
        return memo[1]
    coeffs = p._coeffs
    if width * len(coeffs) > _SHORT_BITS:
        size, half = width // 8, 1 << (width - 1)
        biased = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
        packed = int.from_bytes(biased, "little") - _bias(half, size, len(coeffs))
    else:
        packed = 0
        for c in reversed(coeffs):
            packed = (packed << width) + c
    p._packed = (width, packed)
    return packed


def _unpack(lo: int, packed: int, width: int) -> LaurentPoly:
    """The polynomial sum_i c_i q^(lo + i) of packed = sum_i c_i 2^(width i)."""
    if not packed:
        return _ZERO
    skip = ((packed & -packed).bit_length() - 1) // width  # the zero digits at the bottom
    packed >>= width * skip
    half = 1 << (width - 1)
    bits = packed.bit_length()  # of |packed|
    if bits > _SHORT_BITS:
        # the top digit is nonzero, so it is at most one below bits / width
        size, count = width // 8, bits // width + 1
        data = (packed + _bias(half, size, count)).to_bytes(size * count, "little")
        coeffs = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, size * count, size)]
        return LaurentPoly.dense(lo + skip, coeffs)
    mask, coeffs = (half << 1) - 1, []
    while packed:
        c = packed & mask
        if c >= half:
            c -= mask + 1
        coeffs.append(c)
        packed = (packed - c) >> width
    return _canonical(lo + skip, coeffs)


def _bias(half: int, size: int, count: int) -> int:
    """sum_i half 2^(8 size i) over i < count: added to a packed value, it
    makes each of its count lowest digits nonnegative, so they are its bytes."""
    return int.from_bytes(half.to_bytes(size, "little") * count, "little")


class _PackedSeries:
    """A polynomial or truncated power series in x over the Laurent ring,
    as Kronecker-packed rows: rows[k] is the x^k coefficient at
    q = 2^width, every row held at the shared lowest exponent lo (so its
    low digits may be zero).  The library's x-series passes all run on it:
    :meth:`add` adds a product of polynomial powers to a row,
    :meth:`add_series` adds another series moved up some rows and times a
    polynomial, :meth:`times_linear` multiplies by q^ea - x q^eb, the one
    sign pattern they need (the ``defining`` route's x - q^j is its
    negative, which it folds into the signs of the terms it adds),
    :meth:`divide` divides by 1 - x q^m truncated at an order, and
    :meth:`delta` is the q-difference operator; each is one pass over the
    rows, and no LaurentPoly product is formed.  A working value: its
    passes change it in place, and it never leaves the function that
    builds it.  Callers hand it polynomials and read polynomials back; the
    packed form stays in this module.

    Packing is evaluation at q = 2^width, so sums, shifts and products of
    packed integers are exact whatever their digits.  The rows unpack, and
    two series at one width compare equal exactly when their polynomials
    are, while every coefficient read is a signed width-bit digit.  Callers
    make sure of that with the bound they construct it with, a bound on
    the l1 norms of those rows computed from the norms of their actual
    operands: a product by a linear factor at most doubles the largest row
    norm, a division truncated at x^order sums at most order + 1 rows into
    each, and delta multiplies the norm of the x^k row by at most k.  The
    width is the least multiple of 8 that holds that bound and a sign bit.
    """

    __slots__ = ("width", "lo", "rows")

    def __init__(self, bound: int):
        self.width, self.lo, self.rows = _kronecker_width(bound), 0, []

    @staticmethod
    def packing(polys: Sequence[LaurentPoly], bound: int) -> "_PackedSeries":
        """sum_k polys[k] x^k, with rows of l1 norm at most bound."""
        series = _PackedSeries(bound)
        for k, p in enumerate(polys):
            series.add(k, ((p, 1),))
        return series

    def add(self, k: int, factors: Iterable[tuple[LaurentPoly, int]], times: int = 1) -> None:
        """Add times prod p^e over the (p, e) pairs of factors to the x^k
        row; the shared lowest exponent falls to the product's."""
        term, lo = times, 0
        for p, e in factors:
            term *= _pack(p, self.width) ** e
            lo += p._lo * e
        if lo < self.lo:
            self._lower(lo)
        rows = self.rows
        rows += [0] * (k + 1 - len(rows))
        rows[k] += term << self.width * (lo - self.lo)

    def add_series(self, k: int, other: "_PackedSeries", factor: LaurentPoly, order: int) -> None:
        """Add x^k times factor times other, a series held at the same width,
        dropping the terms past x^order: other's rows moved up k rows, each
        times the packed factor, one pass."""
        if other.width != self.width:
            raise ValueError("series packed at different widths do not add")
        term, lo = _pack(factor, self.width), other.lo + factor._lo
        if lo < self.lo:
            self._lower(lo)
        moved = other.rows[: max(order + 1 - k, 0)]
        rows, shift = self.rows, self.width * (lo - self.lo)
        rows += [0] * (k + len(moved) - len(rows))
        for j, r in enumerate(moved, k):
            rows[j] += (r * term) << shift

    def _lower(self, lo: int) -> None:
        """Hold the rows at the lower shared exponent lo."""
        self.rows = [r << self.width * (self.lo - lo) for r in self.rows]
        self.lo = lo

    def times_linear(self, ea: int, eb: int, order: int | None = None) -> None:
        """Multiply by q^ea - x q^eb, dropping the terms past x^order when an
        order is given.  The shared lowest exponent falls by min(ea, eb), so
        that the one shift it leaves is a left shift.  The x^k row becomes
        q^ea r_k - q^eb r_(k-1), from the top down, so that row k - 1 is
        still the old one when row k reads it."""
        low = min(ea, eb)
        sa, sb = self.width * (ea - low), self.width * (eb - low)
        rows = self.rows
        if order is None or len(rows) <= order:
            rows.append(0)
        else:
            del rows[order + 1 :]
        if sa:
            for k in range(len(rows) - 1, 0, -1):
                rows[k] = (rows[k] << sa) - rows[k - 1]
            rows[0] <<= sa
        else:
            for k in range(len(rows) - 1, 0, -1):
                rows[k] -= rows[k - 1] << sb
        self.lo += low

    def divide(self, m: int, order: int) -> None:
        """Divide by 1 - x q^m, m >= 0, truncated at x^order: the x^k row
        becomes c_k = r_k + q^m c_(k-1), one running sum."""
        rows = self.rows[: order + 1]
        rows += [0] * (order + 1 - len(rows))
        s, c = self.width * m, 0
        for k, r in enumerate(rows):
            c = rows[k] = r + (c << s)
        self.rows = rows

    def delta(self) -> None:
        """The q-difference operator (F(xq) - F(x)) / (xq - x): the x^k row
        times the packed [k] becomes the x^(k-1) row, and row 0 drops, so a
        series exact up to x^order comes out exact up to x^(order - 1)."""
        self.rows = [r * _pack(q_bracket(k), self.width) for k, r in enumerate(self.rows) if k]

    def polys(self) -> list[LaurentPoly]:
        """The x^k coefficients, one per row."""
        return [_unpack(self.lo, r, self.width) for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, _PackedSeries):
            return NotImplemented
        if self.width != other.width:
            raise ValueError("series packed at different widths do not compare")
        lo = min(self.lo, other.lo)
        return self._aligned(lo) == other._aligned(lo)

    def _aligned(self, lo: int) -> list[int]:
        """The rows at the lower shared exponent lo, trailing zero rows dropped."""
        shift = self.width * (self.lo - lo)
        rows = [r << shift for r in self.rows]
        while rows and not rows[-1]:
            rows.pop()
        return rows


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

    For m >= k it is prod_{i<k} (1 - q^(m-i)) / prod_{i=1}^{k} (1 - q^i),
    built with min(k, m - k) in place of k, which gives the same value: the
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
    low = min(k, m - k)  # [m, k] = [m, m - k]: build the side with fewer factors
    coeffs = [1] + [0] * (low * m - low * (low - 1) // 2)
    for a in range(m - low + 1, m + 1):
        for j in range(len(coeffs) - 1, a - 1, -1):
            coeffs[j] -= coeffs[j - a]
    for i in range(1, low + 1):
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
