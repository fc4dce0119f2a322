"""Multiset permutations, their classical statistics, and the placement
statistics they induce.

Words are sequences over the alphabet {1..t}.  Their multiplicity
vector v counts each letter, so the statistics read v off the letters
and never take it as an argument; when v = (1,...,1) a word is a
permutation of S_n.  Classical statistics: descents/major index,
excedences (positions above the sorted rearrangement), and Denert's
statistic on permutations.

A word lifts to many full rook placements (one per ordering of equal
letters within their column block); two canonical lifts matter here:

* the *standard* lift minimizes the crossing statistic ``mat`` within
  every block: on-board rows take the rightmost block columns with
  columns decreasing as rows increase, off-board rows take the leftmost
  columns with columns increasing;
* the *regular* lift minimizes the circle statistic ``xi``: on-board
  rows take the leftmost columns and off-board rows the remaining ones,
  in both cases with columns decreasing as rows increase.

On triangular boards the descent graph of a permutation (rooks read off
the cycle factorization cut at successive minima) turns descent counts
into hit counts, which induces the two eight-member families of
descent-paired statistics, and the excedence-paired statistics built
from block boards.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .boards import FerrersBoard, StepSpec, g_spec
from .placements import _STAT_KERNELS, Placement, _mat_raw
from .qpoly import LaurentPoly, _integral


def _letters(w) -> tuple[int, ...]:
    # a tuple passes unchecked, for the statistics the word suites run most; only
    # the comparison statistics read its letters so (stat_family converts on failure)
    return w if type(w) is tuple else _int_letters(w)


def _int_letters(w) -> tuple[int, ...]:
    # the letters as ints, for the functions that index lists by letter
    return tuple([_integral(x) for x in w])


def _multiplicities(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The multiplicity vector v of a word of int letters: how often each
    letter 1..max occurs.  ValueError on a letter below 1."""
    if letters and min(letters) < 1:
        raise ValueError("letters must be positive")
    counts = [0] * max(letters, default=0)
    for a in letters:
        counts[a - 1] += 1
    return tuple(counts)


def words_over(v: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All words with multiplicity vector v, in lexicographic order."""
    v = [_integral(x) for x in v]
    if any(x < 0 for x in v):
        raise ValueError("multiplicities must be nonnegative")
    n = sum(v)
    word: list[int] = []

    def rec():
        if len(word) == n:
            yield tuple(word)
            return
        for a in range(1, len(v) + 1):
            if v[a - 1]:
                v[a - 1] -= 1
                word.append(a)
                yield from rec()
                word.pop()
                v[a - 1] += 1

    return rec()


def permutations_of(n: int) -> Iterator[tuple[int, ...]]:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# Classical statistics
# ---------------------------------------------------------------------------


def des(w) -> int:
    """Number of positions i with w_i > w_{i+1}."""
    s = _letters(w)
    return sum(1 for a, b in zip(s, s[1:]) if a > b)


def maj(w) -> int:
    """Sum of the descent positions (1-based)."""
    s = _letters(w)
    return sum(i for i, (a, b) in enumerate(zip(s, s[1:]), start=1) if a > b)


def exc(w) -> int:
    """Positions strictly above the sorted rearrangement."""
    s = _letters(w)
    return sum(1 for a, f in zip(s, sorted(s)) if a > f)


def den(perm) -> int:
    """Denert's statistic on a permutation."""
    s = _int_letters(perm)
    n = len(s)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError("Denert's statistic needs a permutation")
    total = 0
    for i in range(1, n + 1):
        si = s[i - 1]
        for j in range(i + 1, n + 1):
            sj = s[j - 1]
            if si <= j < sj:
                total += 1
            elif si > sj > j:
                total += 1
            elif j >= si > sj:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Graphs of words
# ---------------------------------------------------------------------------


def _block_rows(letters: tuple[int, ...], t: int) -> list[list[int]]:
    if letters and not (1 <= min(letters) and max(letters) <= t):
        raise ValueError("word multiset does not match the block widths")
    rows: list[list[int]] = [[] for _ in range(t)]
    for i, a in enumerate(letters, start=1):
        rows[a - 1].append(i)
    return rows


@lru_cache(maxsize=None)
def _spec_context(spec: StepSpec) -> FerrersBoard:
    """The spec's expanded board, which the statistics of a lift read;
    ValueError unless it lies inside the grid, as every lift needs."""
    board = spec.expand()
    if not board.admissible:
        raise ValueError(f"word lifts need an admissible step spec, not {spec}")
    return board


def _lift_sigma(letters: tuple[int, ...], spec: StepSpec, family: str) -> tuple[int, ...]:
    # Per block, the rows up to the block height are on the board.  The
    # standard lift ("mat") gives them the rightmost columns, descending,
    # and the off-board rows the leftmost, ascending; the regular lift
    # ("xi") gives them the leftmost columns and the off-board rows the
    # rest, both descending.  Callers check the spec by _spec_context.
    regular = family == "xi"
    sigma = [0] * len(letters)
    lo = 1
    for rows, H, d in zip(_block_rows(letters, spec.t), spec.block_heights, spec.widths):
        if len(rows) != d:
            raise ValueError("word multiset does not match the block widths")
        split = bisect_right(rows, H)
        # on-board rows descend from `top`; off-board rows walk from `start`
        top, start, step = (lo + split - 1, lo + d - 1, -1) if regular else (lo + d - 1, lo, 1)
        for idx in range(split):
            sigma[rows[idx] - 1] = top - idx
        for idx in range(d - split):
            sigma[rows[split + idx] - 1] = start + step * idx
        lo += d
    return tuple(sigma)


def _lift_stat(letters: tuple[int, ...], spec: StepSpec, family: str) -> int:
    """The family's statistic of the family's canonical lift."""
    board = _spec_context(spec)
    return _STAT_KERNELS[family](_lift_sigma(letters, spec, family), board.heights)


def b_standard_graph(w, spec: StepSpec) -> Placement:
    """The unique lift of the word whose crossing statistic is minimal on
    every block."""
    letters = _int_letters(w)
    _spec_context(spec)
    return Placement.from_permutation(_lift_sigma(letters, spec, "mat"))


def b_regular_graph(w, spec: StepSpec) -> Placement:
    """The unique lift of the word whose circle statistic is minimal on
    every block."""
    letters = _int_letters(w)
    _spec_context(spec)
    return Placement.from_permutation(_lift_sigma(letters, spec, "xi"))


def mat_word(w, spec: StepSpec) -> int:
    """Crossing statistic of the standard lift of the word."""
    return _lift_stat(_int_letters(w), spec, "mat")


def xi_word(w, spec: StepSpec) -> int:
    """Circle statistic of the regular lift of the word."""
    return _lift_stat(_int_letters(w), spec, "xi")


# ---------------------------------------------------------------------------
# Descent graphs and the descent-paired families
# ---------------------------------------------------------------------------


def _descent_sigma(s: tuple[int, ...]) -> tuple[int, ...]:
    # the row -> column map of the descent graph; see descent_graph
    n = len(s)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError("descent graph needs a permutation")
    sigma = [0] * n
    pos = 0
    while pos < n:
        # the values not yet used are exactly s[pos:]
        end = s.index(min(s[pos:]), pos)
        cycle = s[pos : end + 1]
        for j, i in zip(cycle, cycle[1:]):
            sigma[i - 1] = j
        sigma[cycle[0] - 1] = cycle[-1]
        pos = end + 1
    return tuple(sigma)


def descent_graph(perm) -> Placement:
    """Rook placement read off the cycle factorization cut at successive
    minima: each cycle is a maximal prefix segment ending at the smallest
    value not yet used, and a rook sits at (i, j) whenever i immediately
    follows j cyclically inside its cycle.  The number of rooks strictly
    above the diagonal equals the number of descents."""
    return Placement.from_permutation(_descent_sigma(_int_letters(perm)))


def _reflect_sigma(sigma: tuple[int, ...]) -> tuple[int, ...]:
    # the cross-diagonal reflection (i, j) -> (n-j+1, n-i+1) of a full placement
    n = len(sigma)
    reflected = [0] * n
    for i, j in enumerate(sigma, start=1):
        reflected[n - j] = n - i + 1
    return tuple(reflected)


def reverse_perm(perm) -> tuple[int, ...]:
    return tuple(reversed(_letters(perm)))


# variant -> (reverse the permutation?, reflect the descent graph?, add the shift?)
_VARIANTS = {1: (False, False, True), 2: (False, True, True), 3: (True, False, False), 4: (True, True, False)}


def stat_family(perm, family: str = "mat", variant: int = 1) -> int:
    """The eight descent-paired statistics induced by a placement statistic
    on the triangular board.

    Variants: 1 = statistic of the descent graph plus the affine shift
    n*des - C(n,2); 2 = the same for the cross-diagonal reflection of
    the descent graph; 3 = statistic of the descent graph of the
    reversed permutation, no shift; 4 = its reflection; 5..8 = the
    complements n*des - (variants 1..4).
    """
    s = _letters(perm)
    n = len(s)
    if family not in _STAT_KERNELS:
        raise ValueError(f"unknown statistic family {family!r}")
    complemented = variant > 4
    try:
        reverse, reflect, shifted = _VARIANTS[variant - 4 if complemented else variant]
    except KeyError:
        raise ValueError("variant must lie in 1..8") from None
    k = des(s)
    try:
        sigma = _descent_sigma(reverse_perm(s) if reverse else s)
    except (TypeError, ValueError):
        # a float letter fails the permutation check or indexes a list
        s = _int_letters(s)
        sigma = _descent_sigma(reverse_perm(s) if reverse else s)
    if reflect:
        sigma = _reflect_sigma(sigma)
    # the triangular board of order n has heights 0, 1, ..., n-1
    heights = tuple(range(n))
    value = _STAT_KERNELS[family](sigma, heights)
    if shifted:
        value += n * k - n * (n - 1) // 2
    # the fiber of des = k is symmetric about n*k/2, so complementing
    # against n*des keeps the joint distribution
    return n * k - value if complemented else value


# ---------------------------------------------------------------------------
# Excedence-paired statistics on block boards
# ---------------------------------------------------------------------------


def _block_context(w) -> tuple[tuple[int, ...], StepSpec, int]:
    """The word's letters, the step spec of the block board of its
    multiplicity vector v, admissible as H_t = n - v_t < n, and the
    shift n*exc - Area that every block statistic adds."""
    letters = _int_letters(w)
    spec = g_spec(_multiplicities(letters))
    return letters, spec, len(letters) * exc(letters) - spec.area


def stat5(w) -> int:
    """n*exc - Area + crossing statistic of the standard lift on the block board."""
    letters, spec, shift = _block_context(w)
    return shift + _lift_stat(letters, spec, "mat")


def stat6(w) -> int:
    """n*exc - Area + circle statistic of the regular lift on the block board."""
    letters, spec, shift = _block_context(w)
    return shift + _lift_stat(letters, spec, "xi")


def stat7(w) -> int:
    """Like stat5, but routed through the cross-diagonal reflection: the
    standard lift of the word is reflected, and the crossing statistic
    is evaluated against the reflected board (the block board of
    reversed(v), whose area sum_{i<j} v_i v_j is the same).  Reflection
    preserves the excedence count, so pairing with exc keeps the joint
    distribution."""
    letters, spec, shift = _block_context(w)
    board = _spec_context(g_spec(reversed(spec.widths)))
    reflected = _reflect_sigma(_lift_sigma(letters, spec, "mat"))
    return shift + _mat_raw(reflected, board.heights)


# ---------------------------------------------------------------------------
# Closed-form excedence statistics
# ---------------------------------------------------------------------------


def theorem5_stat(perm) -> int:
    """Closed-form partner of exc on permutations: equidistributed jointly
    with (des, maj)."""
    s = _int_letters(perm)
    n = len(s)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError("needs a permutation")
    total = 0
    for i in range(1, n + 1):
        si = s[i - 1]
        total += si - i if si > i else 1 - si
    for i in range(1, n + 1):
        si = s[i - 1]
        for j in range(i + 1, n + 1):
            sj = s[j - 1]
            if si > sj > j:
                total += 1
            if si <= j and si < sj:
                total += 1
    return total


def theorem5_statx(w) -> int:
    """Closed-form partner of exc on words."""
    s = _int_letters(w)
    n = len(s)
    f = tuple(sorted(s))
    # prefix[a - 1] is the number of letters below a
    prefix = [0, *itertools.accumulate(_multiplicities(s))]
    total = n * (n - 1) // 2
    for i in range(1, n + 1):
        si = s[i - 1]
        if si <= f[i - 1]:
            total += sum(1 for j in range(i + 1, n + 1) if si > s[j - 1])
            bound = min(i - 1, prefix[si - 1])
            total += sum(1 for m in range(1, bound + 1) if s[m - 1] < si)
            total -= n - i + prefix[si - 1]
        else:
            total += sum(1 for m in range(1, i) if s[m - 1] < si)
            total -= i - 1
    return total


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def joint_distribution(words: Iterable, stat_a: Callable, stat_b: Callable) -> tuple[LaurentPoly, ...]:
    """The joint distribution of (stat_a, stat_b) over words of one length
    n as a hit table (D_0, ..., D_n): D_a is the generating polynomial of
    stat_b over the words with stat_a = a.  No words give (); a word of
    another length, or a stat_a outside 0..n, raises ValueError."""
    n, counts = None, []
    for w in words:
        length = len(_letters(w))
        if n is None:
            n, counts = length, [{} for _ in range(length + 1)]
        elif length != n:
            raise ValueError(f"a word of length {length} among words of length {n}")
        a, b = stat_a(w), stat_b(w)
        if not 0 <= a <= n:
            raise ValueError(f"stat_a = {a} lies outside 0..{n}")
        counts[a][b] = counts[a].get(b, 0) + 1
    return tuple(
        LaurentPoly.dense(min(c), [c.get(b, 0) for b in range(min(c), max(c) + 1)]) if c else LaurentPoly.zero()
        for c in counts
    )


def parse_word(text: str) -> tuple[int, ...]:
    """Word literal: plain digits for alphabets up to 9, else comma-separated.
    Every letter is at least 1."""
    text = text.strip()
    try:
        if "," in text:
            word = tuple(int(x) for x in text.split(","))
        elif text.isdigit():
            word = tuple(int(ch) for ch in text)
        else:
            raise ValueError
    except ValueError:  # also int()'s own, on an empty or non-decimal letter
        raise ValueError(f"malformed word literal {text!r}") from None
    if min(word) < 1:
        raise ValueError(f"word literal {text!r} has a letter below 1")
    return word
