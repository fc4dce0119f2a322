"""Rook placements on Ferrers boards and the board statistics.

Conventions (matrix coordinates, row 1 on top):

* a placement is a set of cells with pairwise distinct rows and columns;
* a *full* placement on an n x n grid has one rook per row and column
  and is identified with the permutation sigma via a rook at (i, sigma_i);
* the uncovered-count statistic of a k-rook placement on a board counts
  the board squares that remain after crossing out every square that
  holds a rook, lies above a rook in its column, or lies right of a
  rook in its row -- its generating function over all k-rook placements
  is the q-rook polynomial.  ``rook_poly`` computes it by the
  Garsia-Remmel column recurrence, in polynomial time; ``inv_stat``
  reads the statistic off one placement, for the elimination fibers;
* the hit polynomial with k hits is generated over full placements with
  exactly k rooks on the board.  ``hit_polys`` is the one builder of the
  table T_0..T_n, by any of ``HIT_METHODS``: the crossing statistic
  (``mat``), the circle statistic (``xi``), extraction from the rook
  polynomials through the defining product identity (``defining``), and
  the step-board formulas (24) and (26) (``eq24``, ``eq26``), the only
  routes for inadmissible boards.  All but ``defining`` are a table of
  the board's maximal step decomposition times the block factorials:
  ``word_stat_polys`` computes the ``mat`` and ``xi`` tables by a
  dynamic program over word positions whose state is the vector of
  letters used, prod (d_i + 1) states in all, and ``eq24_divided`` (on
  Kronecker-packed integers) and ``_eq26_divided`` (eq. (25) folded over
  the blocks) the formulas' tables.  The tests keep the walks over every
  permutation (``mat_stat`` / ``xi_stat``) and over every word, and the
  signed-term and per-vector sums of the formulas, as oracles.

The statistic kernels work on plain tuples for speed; the public
functions accept :class:`Placement` values and validate their inputs.
Everything is pure and immutable, so sums over permutations and words may
be partitioned across workers freely.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .boards import FerrersBoard, StepSpec, step_decomposition
from .qpoly import IdentityViolation, LaurentPoly, _integral, darga, is_symmetric
from .qpoly import _PackedSeries, _l1_norm
from .qpoly import q_binomial, q_factorial

_ONE_MINUS_Q = LaurentPoly.dense(0, (1, -1))


@dataclass(frozen=True)
class Placement:
    """A set of non-attacking rook positions (row, col), 1-based."""

    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        cells = frozenset((_integral(r), _integral(c)) for r, c in self.cells)
        object.__setattr__(self, "cells", cells)
        rows = {r for r, _ in cells}
        cols = {c for _, c in cells}
        if len(rows) != len(cells) or len(cols) != len(cells):
            raise ValueError("attacking rooks: rows and columns must be distinct")

    @staticmethod
    def from_permutation(sigma: Iterable[int]) -> "Placement":
        """The graph of a permutation: a rook at (i, sigma_i) for each i."""
        return Placement(frozenset((i, s) for i, s in enumerate(sigma, start=1)))

    @property
    def k(self) -> int:
        return len(self.cells)

    def sigma(self, n: int) -> tuple[int, ...]:
        """Row -> column map of a full placement, as a permutation tuple."""
        if len(self.cells) != n:
            raise ValueError("not a full placement")
        by_row = dict(self.cells)
        if set(by_row) != set(range(1, n + 1)):
            raise ValueError("full placement must cover rows 1..n")
        if set(by_row.values()) != set(range(1, n + 1)):
            raise ValueError("full placement must cover columns 1..n")
        return tuple(by_row[i] for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Statistic kernels on raw tuples
# ---------------------------------------------------------------------------


def _hits(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    # a plain loop: _mat_raw runs it once per lifted placement in permstat
    hits = 0
    for i, c in enumerate(sigma, start=1):
        if i <= heights[c - 1]:
            hits += 1
    return hits


def _cross_raw(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    # Cell count formula: every column j contributes its j cells that hold a
    # rook or sit right of one; the extra cells are counted by rook pairs.
    n = len(sigma)
    extra = 0
    for a in range(1, n):
        sa = sigma[a - 1]
        ca = heights[sa - 1]
        for b in range(a + 1, n + 1):
            sb = sigma[b - 1]
            if sa > sb:
                # above the lower rook, on the board
                if a <= heights[sb - 1]:
                    extra += 1
            elif a > ca:
                # below the upper rook, which is off the board
                extra += 1
    return n * (n + 1) // 2 + extra


def _xi_raw(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    # Circle count minus the circles cancelled by sitting right of a rook.
    n = len(sigma)
    total = 0
    for b in range(1, n + 1):
        col = sigma[b - 1]
        h = heights[col - 1]
        if b <= h:
            # rook on the board: circles fill the board cells below it
            for i in range(b + 1, h + 1):
                if sigma[i - 1] > col:
                    total += 1
        else:
            # rook off the board: circles fill the cells below it and the
            # board cells above it
            for i in range(b + 1, n + 1):
                if sigma[i - 1] > col:
                    total += 1
            for i in range(1, h + 1):
                if sigma[i - 1] > col:
                    total += 1
    return total


def _mat_raw(sigma: tuple[int, ...], heights: tuple[int, ...]) -> int:
    n = len(sigma)
    return n * (n - _hits(sigma, heights)) + sum(heights) - _cross_raw(sigma, heights)


# statistic family -> kernel (sigma, heights) -> value, for the full
# placement sigma on the board of the given column heights
_STAT_KERNELS = {"mat": _mat_raw, "xi": _xi_raw}


# ---------------------------------------------------------------------------
# Public statistics
# ---------------------------------------------------------------------------


def inv_stat(placement: Placement, board: FerrersBoard) -> int:
    """Board squares left uncovered by the crossing-out rule: those with no
    rook at or below them in their column and none at or left of them in
    their row.  The fiber of the elimination over a k-rook placement C has
    (p-1)^k p^(Area-k-inv(C)) matrices."""
    row_col = dict(placement.cells)
    col_row = {c: r for r, c in placement.cells}
    for r, c in placement.cells:
        if not board.contains(r, c):
            raise ValueError(f"cell {(r, c)} is off the board")
    count = 0
    for col, h in enumerate(board.heights, start=1):
        for row in range(col_row.get(col, 0) + 1, h + 1):
            if row_col.get(row, col + 1) > col:
                count += 1
    return count


def cross_stat(placement: Placement, board: FerrersBoard) -> int:
    """Number of grid squares that hold a rook, lie right of a rook, lie
    above a rook while on the board, or lie below an off-board rook.
    Each square counts once however many conditions it satisfies."""
    return _cross_raw(placement.sigma(board.n), board.heights)


def mat_stat(placement: Placement, board: FerrersBoard) -> int:
    """n(n-k) + Area - cross for a full placement with k rooks on the board."""
    return _mat_raw(placement.sigma(board.n), board.heights)


def xi_stat(placement: Placement, board: FerrersBoard) -> int:
    """Circle statistic of a full placement.

    Each on-board rook circles the board cells below it in its column;
    each off-board rook circles the cells below it and the board cells
    above it.  Circles landing right of a rook in their row are
    cancelled; the statistic is circles minus cancellations.
    """
    return _xi_raw(placement.sigma(board.n), board.heights)


# ---------------------------------------------------------------------------
# Rook and hit polynomials
# ---------------------------------------------------------------------------


# rook_poly fills every 64th prefix first: it recurses under 128 + n/64 calls deep
_STRIDE = 64


@lru_cache(maxsize=None)
def rook_poly(board: FerrersBoard, k: int) -> LaurentPoly:
    """q-rook polynomial R_k(B): sum of q^uncovered over k-rook placements.

    Computed by the Garsia-Remmel column recurrence: a column of height c
    added on the right of B gives

        R_k(B + c) = q^(c-k) R_k(B) + [c-k+1] R_(k-1)(B),

    since every earlier column is at most c tall: the k rooks of B cross
    out the squares right of them, k of the new column's c, and a rook
    in one of its c - k + 1 free rows keeps the free rows below it.
    The bracket term is one window-sum pass, ``LaurentPoly.times_bracket``.
    Each value recurses through this cache on the board minus its last
    column, so boards sharing a column prefix share the work.  Defined for
    every Ferrers board, admissible or not, and zero for k outside 0..n.
    Its oracle in the tests sums q^uncovered over every choice of k rows
    and an injective map of them to columns; ``ffmat.fiber_check`` sums
    q^inv_stat over the placements the elimination reaches."""
    n = board.n
    if not 0 <= k <= n:
        return LaurentPoly.zero()
    if n == 0:
        return LaurentPoly.one()
    if n % _STRIDE == 0:
        base = board._prefix(n - _STRIDE)
        for kk in range(max(0, k - _STRIDE), min(k, base.n) + 1):
            rook_poly(base, kk)
    c = board.heights[-1]
    prefix = board._prefix(n - 1)
    # the prefix has n - 1 columns, so it has no k-rook placement at k = n
    poly = rook_poly(prefix, k).shifted(c - k) if k < n else LaurentPoly.zero()
    if k:
        poly = poly + rook_poly(prefix, k - 1).times_bracket(c - k + 1)
    return poly


HIT_METHODS = ("mat", "xi", "defining", "eq24", "eq26")

# the position scan of the mat and xi tables keeps one table per vector of
# letters used, prod (d_i + 1) over the blocks of a step spec: 2^n on a board
# of n distinct heights, n + 1 on a board of one height
HIT_DP_MAX_STATES = 2**14


class BudgetExceededError(ValueError):
    """Raised when an enumeration or a dynamic program would exceed its
    fixed budget."""


# str() of an int refuses more digits than this by default
_MAX_DIGITS = 4300


def _decimal(powers: dict[int, int]) -> str | None:
    """prod base^exponent over ``powers`` in decimal, for a budget message,
    or None where ``str`` would refuse it.  The product is formed only when
    its logarithm leaves it at most one digit past ``_MAX_DIGITS``, so a
    message never builds a number of unbounded size."""
    if sum(e * math.log10(b) for b, e in powers.items()) > _MAX_DIGITS:
        return None
    try:
        return str(math.prod(b**e for b, e in powers.items()))
    except ValueError:  # one digit too many, or a lower limit from sys.set_int_max_str_digits
        return None


def _check_scan_budget(widths: tuple[int, ...], family: str) -> None:
    """Raise BudgetExceededError where the position scan of the ``family``
    tables over blocks of these widths needs more than ``HIT_DP_MAX_STATES``
    states, prod (d_i + 1).  The message gives the count in decimal, or as
    powers where that is too long: 2^15000 for 15,000 blocks of width 1."""
    if math.prod(d + 1 for d in widths) > HIT_DP_MAX_STATES:
        powers = collections.Counter(d + 1 for d in widths)
        count = _decimal(powers) or " * ".join(f"{b}^{e}" for b, e in sorted(powers.items()))
        raise BudgetExceededError(
            f"{family} tables over {len(widths)} blocks of total width {sum(widths)} need"
            f" {count} position-scan states, past the budget of {HIT_DP_MAX_STATES}"
        )


def validate_hit_method(board: FerrersBoard, method: str) -> None:
    """Raise ValueError unless ``method`` is one of ``HIT_METHODS`` and
    answers for the board: the step formulas eq24 and eq26 apply to every
    board, the other routes to admissible boards only, and ``mat`` and
    ``xi`` within their state budget only (``BudgetExceededError``)."""
    if method not in HIT_METHODS:
        raise ValueError(f"unknown hit method {method!r}")
    if not board.admissible and method not in ("eq24", "eq26"):
        raise ValueError("inadmissible board: only the step formulas eq24/eq26 apply")
    # prod (d_i + 1) <= 2^n, so a board of few columns needs no decomposition
    if method in ("mat", "xi") and 1 << board.n > HIT_DP_MAX_STATES:
        _check_scan_budget(step_decomposition(board).widths, method)


@lru_cache(maxsize=None)
def hit_polys(board: FerrersBoard, method: str = "mat") -> tuple[LaurentPoly, ...]:
    """All hit polynomials T_0..T_n of a board at once, by one of the
    ``HIT_METHODS`` that :func:`validate_hit_method` lets through.

    ``defining`` expands the rook polynomials, in polynomial time.  The
    others are the block factorials times a table W of the board's maximal
    step decomposition, T_k(B) = prod_i [d_i]! W_k(step_decomposition(B)):
    for ``mat`` and ``xi`` the word table of :func:`word_stat_polys` (each
    word lifts to prod_i d_i! full placements with its hits, and within a
    block these differ from the canonical lift by inversions), for ``eq24``
    and ``eq26`` the divided table of the step-board formula, which raises
    ``IdentityViolation`` where a guard fails.  Only ``mat`` and ``xi``
    have a budget: past ``HIT_DP_MAX_STATES`` they raise ``BudgetExceededError``."""
    validate_hit_method(board, method)
    if method == "defining":
        # sum_j [j]! R_{n-j} prod_{i=j+1}^{n} (x - q^i), a polynomial in x
        # whose x^k coefficient is T_k, in Horner form on packed rows, as
        # sum_j (-1)^(n-j) [j]! R_{n-j} prod_{i=j+1}^{n} (q^i - x): each of
        # the n+1 passes at most doubles the largest row norm, and then adds
        # a term of norm at most |[j]!|_1 |R_(n-j)|_1
        n = board.n
        terms = [(q_factorial(j), rook_poly(board, n - j)) for j in range(n + 1)]
        acc = _PackedSeries(max(_l1_norm(f) * _l1_norm(r) for f, r in terms) << n + 1)
        for j, (factorial, rook) in enumerate(terms):
            acc.times_linear(j, 0)
            acc.add(0, ((rook, 1), (factorial, 1)), (-1) ** (n - j))
        return tuple(acc.polys())
    spec = step_decomposition(board)
    if method == "eq24":
        divided = eq24_divided(spec)
    elif method == "eq26":
        divided = _eq26_divided(spec)
    else:
        divided = word_stat_polys(spec, method)
    factorials = _widths_factorial(spec.widths)
    return tuple(factorials * t for t in divided)


def _widths_factorial(widths: Iterable[int]) -> LaurentPoly:
    """prod_i [d_i]! over the block widths d_i: the lifts of one word."""
    return math.prod((q_factorial(d) for d in widths), start=LaurentPoly.one())


def word_stat_polys(spec: StepSpec, family: str = "mat") -> tuple[LaurentPoly, ...]:
    """W_0..W_n: the generating polynomials of ``mat_word`` or ``xi_word``
    over all words with the spec's widths, indexed by hits like
    :func:`hit_polys`, where the hits of a word are the positions
    j <= H_(w_j).

    A dynamic program over positions 1..n, placing one letter per step,
    whose state is the vector of letters used so far: prod (d_i + 1)
    states, and ``BudgetExceededError`` past ``HIT_DP_MAX_STATES`` of
    them.  Within a block the standard lift's crossings add exactly
    C(d_i, 2) and the regular lift's circles nothing, so both statistics
    reduce to sums over position pairs j < i of the word, each settled by
    the state when the earlier or the later letter is placed.  With
    "left" meaning the letters not yet placed, letter y at position j
    adds to e:

    * mat: the letters z < y left with H_z >= j, and, when j > H_y, every
      letter z > y left;
    * xi: the letters z < y used with H_z >= j, and, when j > H_y, every
      letter z > y left; besides, once position H_y is filled, each y
      still left adds the letters > y used so far.

    A state's table {(hits, e): count} is packed into one integer, a count
    per ``width`` bits at slot hits * stride + e, so a transition is one
    shift and one addition.  At the end mat is
    n(n - hits) + Area - C(n+1, 2) - sum_i C(d_i, 2) - e and xi is e.
    This is MacMahon's inversion count for the q-multinomial with height
    thresholds added; the tests keep the walks over every word and every
    permutation as its oracles."""
    if not spec.admissible:
        raise ValueError(f"word lifts need an admissible step spec, not {spec}")
    if family not in _STAT_KERNELS:
        raise ValueError(f"unknown statistic family {family!r}")
    widths, block_heights = spec.widths, spec.block_heights
    _check_scan_budget(widths, family)
    n = sum(widths)
    radix = [1]
    for d in widths:
        radix.append(radix[-1] * (d + 1))
    xi = family == "xi"
    stride = n * (n - 1) // 2 + 1  # e counts position pairs, each at most once
    # no count exceeds the number of words, n! / prod d_i!
    width = (math.factorial(n) // math.prod(math.factorial(d) for d in widths)).bit_length()
    letters = range(spec.t)
    tables = [0] * radix[-1]
    tables[0] = 1
    # the state's index is sum_i used_i * radix_i, so placing letter y adds
    # radix[y] and every state comes after the states it is reached from;
    # product() varies its last factor fastest, hence the reversals
    for index, rev_used in enumerate(itertools.product(*(range(d + 1) for d in reversed(widths)))):
        used = rev_used[::-1]
        table = tables[index]
        j = sum(used)
        if xi:
            below = 0  # letters <= y used
            for y in letters:
                below += used[y]
                if block_heights[y] == j:
                    table <<= (j - below) * (widths[y] - used[y]) * width
        if j == n:
            break  # the last state: every letter used
        j += 1
        left = [d - u for d, u in zip(widths, used)]
        counted = used if xi else left
        later = n - j + 1  # all letters left; the letters z > y left once y is taken off
        lower_tall = 0  # the counted letters z < y with H_z >= j
        for y in letters:
            later -= left[y]
            if left[y]:
                slot = lower_tall + (stride if j <= block_heights[y] else later)
                tables[index + radix[y]] += table << slot * width
            if block_heights[y] >= j:
                lower_tall += counted[y]
    mat_base = None if xi else n * n + spec.area - n * (n + 1) // 2 - sum(d * (d - 1) // 2 for d in widths)
    return _unpack_hit_table(tables[-1], n, stride, width, mat_base)


def _unpack_hit_table(
    packed: int, n: int, stride: int, width: int, mat_base: int | None
) -> tuple[LaurentPoly, ...]:
    """T_0..T_n from a table {(hits, e): count} packed a count per ``width``
    bits at slot hits * stride + e.  The exponent is e itself, or
    mat_base - n * hits - e when ``mat_base`` is given."""
    mask, row_bits = (1 << width) - 1, stride * width
    polys = []
    for hits in range(n + 1):
        row = (packed >> hits * row_bits) & ((1 << row_bits) - 1)
        counts = []  # by e
        while row:
            counts.append(row & mask)
            row >>= width
        if mat_base is None:
            polys.append(LaurentPoly.dense(0, counts))
        else:
            polys.append(LaurentPoly.dense(mat_base - n * hits - len(counts) + 1, counts[::-1]))
    return tuple(polys)


@lru_cache(maxsize=None)
def classical_hit_distribution(board: FerrersBoard) -> tuple[int, ...]:
    """Counts of permutations by the number of board squares hit, from the
    rook numbers r_j = R_j(B; 1):
    h_k = sum_{j>=k} (-1)^(j-k) C(j,k) (n-j)! r_j."""
    if not board.admissible:
        raise ValueError("hit numbers need an admissible board")
    n = board.n
    rooks = [rook_poly(board, j).evaluate(1) for j in range(n + 1)]
    return tuple(
        sum(
            (-1) ** (j - k) * math.comb(j, k) * math.factorial(n - j) * rooks[j]
            for j in range(k, n + 1)
        )
        for k in range(n + 1)
    )


def darga_target(spec: StepSpec) -> int:
    """Area + n^2 - sum_i D_i d_i: the darga of the 0-hit polynomial
    divided by the block factorials; at k hits it is n k less."""
    n = spec.n
    return spec.area + n * n - sum(D * d for D, d in zip(spec.col_offsets, spec.widths))


def eq24_divided(spec: StepSpec) -> tuple[LaurentPoly, ...]:
    """(T_0, ..., T_n)(B) / prod [d_i]! by the alternating q-binomial
    expansion: with P_s = prod_i [s + H_i - D_(i-1), d_i], the k-hit entry
    is sum_s (-1)^j q^C(j,2) [n+1, j] P_s over s + j = n - k.

    By the q-binomial theorem those signed q-binomials are the x^j
    coefficients of (1 - x)(1 - xq)...(1 - xq^n), so the k-hit entry is the
    x^(n-k) coefficient of that product times sum_s P_s x^s.  The table is
    built on ``qpoly._PackedSeries``: row s starts as P_s, added as the
    powers of its brackets, and then n+1 passes each multiply by one
    factor 1 - xq^i; the kernel does this on Kronecker-packed integers,
    forming no polynomial product, and each row is unpacked once at the
    end.  With |p|_1 the sum of the absolute values of p's coefficients,
    |P_s|_1 is at most prod_i |[s + H_i - D_(i-1), d_i]|_1, and a pass at
    most doubles the largest row norm in the table, so the kernel is given
    the l1 bound 2^(n+1) max_s prod_i |bracket_i|_1.

    One loop over s reads the brackets of each nonzero P_s once, for the
    product of their l1 norms and the sum of their dargas while every one
    is symmetric.

    A P_s with any negative bracket numerator, that is with
    s < max_i (D_(i-1) - H_i), must vanish (the cancellation the closed
    form relies on); P_n, whose numerators are all at least their
    denominators, must not.  Every term (-1)^j q^C(j,2) [n+1, j] P_s must be
    symmetric with darga ``darga_target(spec) - n k``; the signed q-binomial
    is nonzero and symmetric with darga j n, and Z[q, q^-1] has no zero
    divisors, so that holds exactly when P_s is symmetric with darga
    ``darga_target(spec) - n(n - s)``, which is what is checked, once
    per nonzero P_s.  A product of symmetric factors is symmetric with the
    sum of their dargas, so P_s passes when each bracket is symmetric and
    their dargas add up to that; only otherwise, as on a corrupted run, is
    P_s formed as a LaurentPoly product, to decide on its own
    coefficients.  IdentityViolation reports a product that does not
    vanish, a P_n that does, or the first failing term, the one at k = 0;
    they are checked in that order.
    """
    n = spec.n
    H = spec.block_heights
    D = (0,) + spec.col_offsets
    # block i's bracket at s is [s + c_i, d_i] with c_i = H_i - D_(i-1);
    # equal blocks have equal brackets at every s, so P_s is a product of
    # powers, which stays balanced where a chain of products does not
    repeats: dict[tuple[int, int], int] = {}
    for i, d in enumerate(spec.widths):
        block = (H[i] - D[i], d)
        repeats[block] = repeats.get(block, 0) + 1
    min_s = max((-c for c, _ in repeats), default=0)  # P_s has a negative numerator exactly when s < min_s
    # per nonzero P_s: s, its (bracket, multiplicity) pairs, and the sum of
    # the bracket dargas while every bracket is symmetric, else None; bound
    # is the largest product of l1 norms
    found, bound = [], 0
    for s in range(n + 1):
        brackets, norm, dargas = [], 1, 0
        for (c, d), e in repeats.items():
            b = q_binomial(s + c, d)
            coeffs = b._coeffs
            if not coeffs:
                break
            brackets.append((b, e))
            norm *= sum(map(abs, coeffs)) ** e
            if dargas is not None:
                dargas = dargas + (2 * b._lo + len(coeffs) - 1) * e if coeffs == coeffs[::-1] else None
        else:
            if s < min_s:
                prod = math.prod((b for b, e in brackets for _ in range(e)), start=LaurentPoly.one())
                raise IdentityViolation(f"{spec} s={s}: a negative bracket numerator left {prod}")
            found.append((s, brackets, dargas))
            bound = max(bound, norm)
    # at s = n each numerator n + H_i - D_(i-1) is at least d_i, so P_n is
    # a product of nonzero brackets
    if not found or found[-1][0] != n:
        raise IdentityViolation(f"{spec} s={n}: P_n vanished")
    target = darga_target(spec)  # minus n k at k hits
    table = _PackedSeries(bound << n + 1)
    for s, brackets, dargas in found:
        goal = target - n * (n - s)
        if dargas != goal:
            prod = math.prod((b for b, e in brackets for _ in range(e)), start=LaurentPoly.one())
            if not (is_symmetric(prod) and darga(prod) == goal):
                j = n - s
                term = q_binomial(n + 1, j).shifted(j * (j - 1) // 2) * prod
                raise IdentityViolation(
                    f"{spec} k=0 s={s}: term {term} is not symmetric with darga {target}"
                )
        table.add(s, brackets)
    for i in range(n + 1):
        table.times_linear(0, i, order=n)  # times 1 - x q^i
    return tuple(table.polys()[::-1])


def _eq26_divided(spec: StepSpec) -> tuple[LaurentPoly, ...]:
    """(T_0, ..., T_n)(B) / prod [d_i]! by the composition expansion: the
    vector e with 0 <= e_i <= d_i and E_i = e_1 + ... + e_i adds

        prod_i [H_i - D_(i-1) + E_(i-1), d_i - e_i] [D_i + D_(i-1) - H_i - E_(i-1), e_i]
               q^(e_i (H_i - D_i + E_i))

    to the entry with n - E_t hits.  Grouped by the hits r = D_(i-1) -
    E_(i-1) of each prefix, that is (1,) folded over the blocks by
    :func:`_eq25_step`, guarded under the overlap or dominance condition."""
    name = str(spec) if spec.condition_overlap() or spec.condition_dominance() else None
    table = (LaurentPoly.one(),)
    for i, (D0, H, d) in enumerate(zip((0,) + spec.col_offsets, spec.block_heights, spec.widths), start=1):
        table = _eq25_step(table, D0, H, d, name and f"{name} block={i}")
    return table


def _eq25_step(
    table: tuple[LaurentPoly, ...], D0: int, H: int, d: int, guard: str | None = None
) -> tuple[LaurentPoly, ...]:
    """Eq. (25): hit polynomials of a board of width D0, indexed by hits r
    and divided by block factorials or not, extended by a block of height
    H and width d: with n = D0 + d and E = D0 - r, entry r + d - e gains
    table[r] [H - r, d - e] [n - H + r, e] q^(e (H - n + E + e)).

    With a ``guard`` (a message prefix), a nonzero factor applied to a
    nonzero entry raises IdentityViolation if a bracket numerator or a
    coefficient is negative; until one does, every entry is a sum of
    nonnegative products, so a zero entry is one no vector e reaches."""
    n = D0 + d
    out = [LaurentPoly.zero()] * (n + 1)
    for r, entry in enumerate(table):
        if not entry:
            continue
        above, below = H - r, n - H + r  # the bracket numerators
        for e in range(d + 1):
            factor = q_binomial(above, d - e) * q_binomial(below, e)
            if not factor:
                continue
            if guard is not None:
                if above < 0 or below < 0:
                    raise IdentityViolation(f"{guard} r={r} e={e}: a negative numerator left {factor}")
                if any(c < 0 for _, c in factor.items()):
                    raise IdentityViolation(
                        f"{guard} r={r} e={e}: factor {factor} is negative"
                        " under the overlap or dominance condition"
                    )
            out[r + d - e] += (entry * factor).shifted(e * (above - d + e))
    return tuple(out)


# ---------------------------------------------------------------------------
# The bracket factorization identity
# ---------------------------------------------------------------------------


def factorization_check(board: FerrersBoard) -> bool:
    """Check sum_k [x][x-1]...[x-k+1] R_{n-k} = prod_i [x+c_i-i+1].

    Encoding z = q^x, each bracket [x+m] is (1 - z q^m)/(1-q); clearing
    the common denominator (1-q)^n turns both sides into honest
    two-variable polynomials, which are compared exactly, as packed rows
    at one width.
    """
    if not board.admissible:
        raise ValueError("factorization check needs an admissible board")
    n = board.n
    # nested: A_0 + (1 - z)(A_1 + (1 - z/q)(A_2 + ...)), each A_k added as
    # the powers R_(n-k) (1-q)^(n-k), of norm at most |R_(n-k)|_1 2^(n-k);
    # each side's n+1 or n passes at most double the largest row norm, and
    # the right side starts at 1, so one bound serves both sides
    rooks = [rook_poly(board, j) for j in range(n + 1)]
    bound = max(1, *(_l1_norm(r) << j for j, r in enumerate(rooks))) << n + 1
    lhs = _PackedSeries(bound)
    for k in range(n, -1, -1):
        lhs.times_linear(0, -k)
        lhs.add(0, ((rooks[n - k], 1), (_ONE_MINUS_Q, n - k)))
    rhs = _PackedSeries(bound)
    rhs.add(0, ())
    for i, c in enumerate(board.heights, start=1):
        rhs.times_linear(0, c - i + 1)
    return lhs == rhs


def rook_sum_identity(board: FerrersBoard) -> bool:
    """Check sum_k R_k(B) (1-q)^k = 1."""
    total = LaurentPoly.zero()
    power = LaurentPoly.one()  # (1-q)^k
    for k in range(board.n + 1):
        total = total + rook_poly(board, k) * power
        power = power * _ONE_MINUS_Q
    return total == LaurentPoly.one()
