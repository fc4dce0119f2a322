"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and shares no code with the
library paths it checks.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from qrook.boards import FerrersBoard, StepSpec
from qrook.permstat import mat_word, words_over, xi_word
from qrook.placements import Placement, mat_stat, xi_stat
from qrook.qpoly import IdentityViolation, LaurentPoly, q_binomial


def partitions_in_box_gf(rows: int, cols: int) -> LaurentPoly:
    """Generating function by size of partitions fitting in a rows x cols box,
    by direct enumeration of weakly decreasing height vectors."""
    counts: dict[int, int] = {}

    def rec(remaining_cols: int, cap: int, size: int):
        if remaining_cols == 0:
            counts[size] = counts.get(size, 0) + 1
            return
        for h in range(cap + 1):
            rec(remaining_cols - 1, h, size + h)

    rec(cols, rows, 0)
    return LaurentPoly(counts)


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of {1..n} into k nonempty blocks: each element
    joins an existing block or opens a new one (restricted growth)."""
    count = 0

    def rec(i: int, blocks: int):
        nonlocal count
        if i == n:
            if blocks == k:
                count += 1
            return
        for _ in range(blocks):
            rec(i + 1, blocks)
        rec(i + 1, blocks + 1)

    rec(0, 0)
    return count


def hit_counts_by_enumeration(heights: tuple[int, ...]) -> list[int]:
    """Permutations counted by how many positions land on the board."""
    n = len(heights)
    counts = [0] * (n + 1)
    for sigma in itertools.permutations(range(1, n + 1)):
        hits = sum(1 for i, c in enumerate(sigma, start=1) if i <= heights[c - 1])
        counts[hits] += 1
    return counts


def hit_polys_by_permutations(heights: tuple[int, ...], family: str) -> tuple[LaurentPoly, ...]:
    """T_0..T_n of an admissible board by walking all n! permutations:
    each adds q^stat to the entry of its number of on-board rooks, where
    stat is the public ``mat_stat`` or ``xi_stat``."""
    board = FerrersBoard(heights)
    stat = {"mat": mat_stat, "xi": xi_stat}[family]
    n = len(heights)
    counts: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for sigma in itertools.permutations(range(1, n + 1)):
        placement = Placement.from_permutation(sigma)
        bucket = counts[on_board_count(placement, board)]
        e = stat(placement, board)
        bucket[e] = bucket.get(e, 0) + 1
    return tuple(LaurentPoly(c) for c in counts)


def word_stat_polys_by_words(spec: StepSpec, family: str) -> tuple[LaurentPoly, ...]:
    """W_0..W_n of an admissible step spec by walking every word with its
    widths: each adds q^stat to the entry of its hits, the positions j
    with j <= H_(w_j), where stat is the public ``mat_word`` or
    ``xi_word`` of the word's canonical lift."""
    stat = {"mat": mat_word, "xi": xi_word}[family]
    heights = spec.block_heights
    counts: list[dict[int, int]] = [{} for _ in range(spec.n + 1)]
    for w in words_over(spec.widths):
        bucket = counts[sum(1 for j, y in enumerate(w, start=1) if j <= heights[y - 1])]
        e = stat(w, spec)
        bucket[e] = bucket.get(e, 0) + 1
    return tuple(LaurentPoly(c) for c in counts)


def joint_pairs(words, stat_a, stat_b) -> Counter:
    """The joint distribution of (stat_a, stat_b) as the multiset of
    (stat_a(w), stat_b(w)) pairs, with no table and no range checks."""
    return Counter((stat_a(w), stat_b(w)) for w in words)


def eq24_signed_terms(spec: StepSpec, binomial=q_binomial) -> tuple[LaurentPoly, ...]:
    """Oracle for ``verify.eq24_divided``: the alternating q-binomial
    expansion one signed term at a time.  With P_s = prod_i
    [s + H_i - D_(i-1), d_i], the k-hit entry sums the products
    (-1)^j q^C(j,2) [n+1, j] P_s over s + j = n - k, each term guarded
    to be symmetric with darga ``darga_target(spec) - n k``; a nonzero P_s
    with a negative bracket numerator raises first.  The messages are
    those of the library route.  ``binomial`` stands in for
    ``q_binomial``, so a test can corrupt both routes alike."""
    n = spec.n
    H = spec.block_heights
    D = (0,) + spec.col_offsets
    min_s = max((D[i] - H[i] for i in range(spec.t)), default=0)
    products = []
    for s in range(n + 1):
        prod = LaurentPoly.one()
        for i in range(spec.t):
            prod = prod * binomial(s + H[i] - D[i], spec.widths[i])
            if not prod:
                break
        if prod and s < min_s:
            raise IdentityViolation(f"{spec} s={s}: a negative bracket numerator left {prod}")
        products.append(prod)
    target = spec.area + n * n - sum(d * w for d, w in zip(spec.col_offsets, spec.widths))
    table = []
    for k in range(n + 1):
        total = LaurentPoly.zero()
        for s, prod in enumerate(products[: n - k + 1]):
            if not prod:
                continue
            j = n - k - s
            unsigned = binomial(n + 1, j).shifted(j * (j - 1) // 2) * prod
            term = unsigned if j % 2 == 0 else -unsigned
            if not (term == term.subs_q_inverse().shifted(target - n * k)):
                raise IdentityViolation(
                    f"{spec} k={k} s={s}: term {unsigned} is not symmetric"
                    f" with darga {target - n * k}"
                )
            total = total + term
        table.append(total)
    return tuple(table)


def eq26_divided_by_vectors(spec: StepSpec, binomial=q_binomial) -> tuple[LaurentPoly, ...]:
    """The composition expansion of ``verify._eq26_divided`` one vector e
    at a time: every e in lexicographic order rebuilds its product over
    the blocks from scratch, with the same guards and messages.
    ``binomial`` stands in for ``q_binomial``, so a test can corrupt both
    routes alike."""
    n = spec.n
    H = spec.block_heights
    D = (0,) + spec.col_offsets
    widths = spec.widths
    conditions = spec.condition_overlap() or spec.condition_dominance()
    table = [LaurentPoly.zero()] * (n + 1)
    for e in itertools.product(*(range(d + 1) for d in widths)):
        prod = LaurentPoly.one()
        exponent = 0
        E = 0
        negative_numerator = False
        for i in range(spec.t):
            prev_E = E
            E += e[i]
            m1 = H[i] - D[i] + prev_E
            m2 = D[i + 1] + D[i] - H[i] - prev_E
            if m1 < 0 or m2 < 0:
                negative_numerator = True
            prod = prod * binomial(m1, widths[i] - e[i]) * binomial(m2, e[i])
            if not prod:
                break
            exponent += e[i] * (H[i] - D[i + 1] + E)
        if not prod:
            continue
        if conditions and negative_numerator:
            raise IdentityViolation(f"{spec} e={e}: a negative numerator left {prod}")
        term = prod.shifted(exponent)
        if conditions and any(c < 0 for _, c in term.items()):
            raise IdentityViolation(
                f"{spec} e={e}: term {term} is negative under the overlap or dominance condition"
            )
        table[n - E] = table[n - E] + term
    return tuple(table)


def lifts(w, widths) -> list[Placement]:
    """All full placements that collapse to the word, prod d_i! of them:
    the rows holding letter i take the columns of block i in every order."""
    blocks = []
    lo = 0
    for i, d in enumerate(widths, start=1):
        rows = [row for row, letter in enumerate(w, start=1) if letter == i]
        blocks.append([list(zip(rows, cols)) for cols in itertools.permutations(range(lo + 1, lo + d + 1))])
        lo += d
    return [
        Placement(cell for block in choice for cell in block)
        for choice in itertools.product(*blocks)
    ]


def board_cells(board: FerrersBoard) -> list[tuple[int, int]]:
    """The cells (row, col) of the board, row by row: column j holds rows 1..c_j."""
    rows = range(1, max(board.heights, default=0) + 1)
    return [(r, c) for r in rows for c, h in enumerate(board.heights, start=1) if r <= h]


def on_board_count(placement: Placement, board: FerrersBoard) -> int:
    """The rooks of the placement that sit on a cell of the board."""
    return len(placement.cells & set(board_cells(board)))


def reflect(placement: Placement, n: int) -> Placement:
    """Every cell reflected about the cross diagonal: (i, j) -> (n-j+1, n-i+1)."""
    return Placement({(n - c + 1, n - r + 1) for r, c in placement.cells})


def transpose(placement: Placement) -> Placement:
    """Every cell (i, j) moved to (j, i)."""
    return Placement({(c, r) for r, c in placement.cells})


def word_of_placement(placement: Placement, widths) -> tuple[int, ...]:
    """A full placement collapsed to a word: the letter of row i is the
    block of columns, widths[b - 1] wide for block b, that holds its rook."""
    block_of = [i for i, d in enumerate(widths, start=1) for _ in range(d)]
    return tuple(block_of[c - 1] for _, c in sorted(placement.cells))


def zsu_atom(d: int, i: int) -> LaurentPoly:
    """q^(d-i) + ... + q^i for d/2 <= i <= d; the polynomials that pass
    ``zsu_check(f, d)`` are the nonnegative integer sums of these atoms."""
    if not (2 * i >= d >= 0 and i <= d):
        raise ValueError("atom needs d/2 <= i <= d")
    return LaurentPoly({e: 1 for e in range(d - i, i + 1)})


def rook_poly_by_cells(heights: tuple[int, ...], k: int) -> LaurentPoly:
    """q-rook polynomial of any Ferrers board by trying every choice of k
    rows and an injective map of them to columns: when every rook lands on
    a board cell, the placement counts q^(uncovered squares), where a
    square is covered when it holds a rook, lies above a rook in its
    column or lies right of a rook in its row."""
    cells = [(r, c) for c, h in enumerate(heights, start=1) for r in range(1, h + 1)]
    rows = range(1, max(heights, default=0) + 1)
    counts: dict[int, int] = {}
    for chosen in itertools.combinations(rows, k):
        for cols in itertools.permutations(range(1, len(heights) + 1), k):
            rooks = list(zip(chosen, cols))
            if any(r > heights[c - 1] for r, c in rooks):
                continue
            uncovered = sum(
                1
                for r, c in cells
                if not any((c == rc and r <= rr) or (r == rr and c >= rc) for rr, rc in rooks)
            )
            counts[uncovered] = counts.get(uncovered, 0) + 1
    return LaurentPoly(counts)


def rook_numbers(heights: tuple[int, ...]) -> list[int]:
    """r_0..r_n at q = 1, adding columns left to right: a new column of
    height c has c - (k-1) rows free of the k-1 earlier rooks."""
    r = [1] + [0] * len(heights)
    for c in heights:
        for k in range(len(heights), 0, -1):
            r[k] += max(c - k + 1, 0) * r[k - 1]
    return r


def rank_counts_by_columns(heights: tuple[int, ...], p: int) -> list[int]:
    """Supported matrices over F_p by rank, adding columns left to right
    without building a matrix.  Heights weakly increase, so the r earlier
    columns' span lies in the first c coordinates of a new column of height
    c, which keeps the rank in p^r ways and raises it in p^c - p^r ways."""
    counts = [1] + [0] * len(heights)
    for c in heights:
        nxt = [0] * len(counts)
        for r, count in enumerate(counts):
            nxt[r] += count * p**r
            if r < c:
                nxt[r + 1] += count * (p**c - p**r)
        counts = nxt
    return counts


def stirling2_closed(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion over surjections onto k blocks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def is_prime_by_trial_division(p: int) -> bool:
    """Primality by trial division up to sqrt(p)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def evaluate_by_powers(poly: LaurentPoly, value):
    """Oracle for ``LaurentPoly.evaluate``: the sum of c * value^e over
    the nonzero terms, each power formed as a Fraction; an integral
    result comes back as an int."""
    v = Fraction(value)
    acc = sum(c * v**e for e, c in poly.items())
    return int(acc) if acc.denominator == 1 else acc


# A sparse Laurent polynomial: {exponent: coefficient}, no zero coefficients.


def sparse_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Termwise sum, dropping the coefficients that cancel."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def sparse_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Every pair of terms multiplied, the products summed by exponent."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def sparse_dense(a: dict[int, int]) -> dict:
    """The wire form {"min_exp", "coeffs"}: coefficients from the lowest
    exponent to the highest, zeros included."""
    if not a:
        return {"min_exp": 0, "coeffs": []}
    lo = min(a)
    return {"min_exp": lo, "coeffs": [a.get(e, 0) for e in range(lo, max(a) + 1)]}


def sparse_str(a: dict[int, int]) -> str:
    """Terms in ascending exponent as [-]c*q^e, joined by + or -, with the
    coefficient 1 and the exponents 0 and 1 written short."""
    terms = []
    for e in sorted(a):
        c = a[e]
        power = "" if e == 0 else "q" if e == 1 else f"q^{e}"
        if not power:
            body = str(abs(c))
        elif abs(c) == 1:
            body = power
        else:
            body = f"{abs(c)}*{power}"
        sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
        terms.append(sign + body)
    return " ".join(terms) or "0"


# A sparse bivariate polynomial: {(q_exp, x_exp): coefficient}, no zero
# coefficients.  sparse_add serves it unchanged.


def sparse_bivariate_mul(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict:
    """The dict convolution: every pair of terms multiplied, the products
    summed by (q, x) exponent."""
    out: dict[tuple[int, int], int] = {}
    for (qa, xa), ca in a.items():
        for (qb, xb), cb in b.items():
            key = (qa + qb, xa + xb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def sparse_bivariate_delta(a: dict[tuple[int, int], int]) -> dict:
    """a_k x^k -> [k] a_k x^(k-1) term by term: c q^e x^k becomes
    c (q^e + ... + q^(e+k-1)) x^(k-1)."""
    out: dict[tuple[int, int], int] = {}
    for (qe, xe), c in a.items():
        for i in range(xe):
            key = (qe + i, xe - 1)
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


# x-series passes on LaurentPoly values: a series is the list of its x^k
# coefficients.  These are the library's earlier passes, kept to check the
# packed passes of qpoly._PackedSeries.


def series_times_linear(coeffs: list[LaurentPoly], a: LaurentPoly, b: LaurentPoly) -> list[LaurentPoly]:
    """The series times a + b x: its x^k coefficient is a c_k + b c_(k-1)."""
    zero = LaurentPoly.zero()
    return [u * a + v * b for u, v in zip(list(coeffs) + [zero], [zero] + list(coeffs))]


def series_divided_by_one_minus(coeffs: list[LaurentPoly], m: int, order: int) -> list[LaurentPoly]:
    """The series over 1 - x q^m, truncated at x^order: the x^k coefficient
    is c_k + q^m times the quotient's x^(k-1) coefficient."""
    out, c = [], LaurentPoly.zero()
    for k in range(order + 1):
        c = (coeffs[k] if k < len(coeffs) else LaurentPoly.zero()) + c.shifted(m)
        out.append(c)
    return out
