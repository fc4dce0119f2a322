"""Identity, recurrence, and unimodality checks, plus the named suites.

Checks only: every hit table a check reads comes from the builders of
:mod:`~qrook.placements` (``hit_polys``, ``word_stat_polys``, the step
formulas' divided tables and their eq. (25) step, ``_eq25_step``).
Each check returns True on its whole desk-scale domain; a False from a
suite is a build-breaking failure.
Every FAIL line names its check and instance; the hit-method,
step-formula and Euler-Mahonian table comparisons add the first
disagreeing index with each table's entry, the multiset-Mahonian checks
the first differing exponent, and a check that raises IdentityViolation
carries its message.  Any other exception a check raises is a FAIL line
too, carrying its type and message, so no check ends a run with a
traceback; only an AssertionError, a bare assert that python -O would
strip, escapes.  Suites are pure and embarrassingly parallel
across their instances.

The checks fall into four groups:

* series identities: the generating function whose x^k coefficient is
  prod_i [k + c_i - i + 1] both by direct bracket products and by
  dividing the hit-polynomial numerator by (1-x)(1-xq)...(1-xq^n), one
  truncated pass per factor of the packed x-series kernel
  ``qpoly._PackedSeries``, which forms no product, together with the
  q-difference operator identity used to add an empty column (Lemma 3),
  whose two sides are x-monomials divided by such products on the same
  kernel, one truncated pass per factor; a series is the tuple of its
  x^k coefficients, each a :class:`~qrook.qpoly.LaurentPoly`;
* structural recurrences: the empty-column recurrence for hit
  polynomials, and complement reciprocity;
* the descent/major-index ladder on triangular boards and its multiset
  generalization on block boards; the multiset Mahonian checks and the
  block-board (exc, stat5), (exc, stat6) checks read the position-scan
  tables of :func:`~qrook.placements.word_stat_polys` instead of lifting
  every word, against q-multinomials and against the (des, maj)
  distribution of the enumerated words.  The ``mat``/``xi`` hit
  polynomials are the same tables times the block factorials; the
  hit-method, q = 1 and step-formula checks compare them with routes
  that share no code with the scan, and the block-board maj check reads
  the ``defining`` hit polynomials, so that it and the stat5 check do
  not read one table;
* the step-board formulas: the alternating q-binomial expansion and the
  composition expansion, equal to each other on every presentation of
  a step board and to the enumerated hit polynomials on admissible
  ones, the truncation recurrence that peels off the last block (one
  eq. (25) step on the tables of the closed form (24), since the
  composition expansion is that step folded), and the
  symmetry/unimodality statements with their darga bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    complement,
    compositions,
    flip,
    g_board,
    g_spec,
    staircase_board,
    triangular_board,
)
from .placements import (
    _eq25_step,
    _eq26_divided,
    _widths_factorial,
    classical_hit_distribution,
    darga_target,
    eq24_divided,
    factorization_check,
    hit_polys,
    rook_poly,
    rook_sum_identity,
    word_stat_polys,
)
from .qpoly import (
    IdentityViolation,
    LaurentPoly,
    _PackedSeries,
    _integral,
    _l1_norm,
    darga,
    is_symmetric,
    q_bracket,
    q_factorial,
    q_multinomial,
    q_stirling,
    zsu_check,
)
from . import permstat
from . import ffmat


# ---------------------------------------------------------------------------
# Series in x over the Laurent ring, on the packed kernel
# ---------------------------------------------------------------------------


def phi_series(board: FerrersBoard) -> tuple[LaurentPoly, ...]:
    """The x^k coefficients prod_i [k + c_i - i + 1] for k = 0..n+3, computed
    two independent ways; IdentityViolation reports the first coefficient
    where they differ.

    Route A divides sum_k x^k T_{n-k}(B) by (1-x)(1-xq)...(1-xq^n), one
    truncated pass per factor on packed rows; route B multiplies the
    brackets directly.
    """
    n = board.n
    # the order n+3 pushes the brackets past their degenerate values
    order = n + 3
    hits = hit_polys(board, "defining")
    # the x^k coefficient of the quotient sums, over j <= k, the x^(k-j) row
    # times the C(n+j, j) monomials of degree j in 1, q, ..., q^n, so its
    # norm is at most the largest row norm times C(n+1+order, order)
    bound = max(map(_l1_norm, hits)) * math.comb(n + 1 + order, order)
    route_a = _PackedSeries.packing([hits[n - k] for k in range(n + 1)], bound)
    for i in range(n + 1):
        route_a.divide(i, order)
    series = route_a.polys()
    for k, via_hits in enumerate(series):
        direct = _bracket_product(board.heights, k)
        if via_hits != direct:
            raise IdentityViolation(
                f"series mismatch for {board} at x^{k}: "
                f"bracket product gives {direct}, hit-polynomial route gives {via_hits}"
            )
    return tuple(series)


def _bracket_product(heights: tuple[int, ...], k: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for i, c in enumerate(heights, start=1):
        out = out * q_bracket(k + c - i + 1)
        if not out:
            break
    return out


def lemma3_delta_check(n: int) -> bool:
    """delta(x^k / prod_{i=0}^{n}(1-xq^i)) equals
    ([k] x^(k-1) + [n-k+1] q^k x^k) / prod_{i=0}^{n+1}(1-xq^i), for 0<=k<=n.

    The q^k factor follows from expanding the difference quotient:
    (q^k - q^(n+1)) / (q-1) = -q^k [n-k+1].  Both sides are packed rows of
    ``_PackedSeries``.  Each side's product is divided out once, one
    truncated pass per factor: the left side for k is 1/prod_{i<=n}(1-xq^i)
    moved up k rows, and the right side two moved copies of
    1/prod_{i<=n+1}(1-xq^i), times [k] and q^k [n-k+1].  The left side is
    kept up to x^(n+4), so that after delta both are exact up to x^(n+3).
    """
    order = n + 3
    # the x^j row of 1/prod_{i<=m}(1-xq^i) is a sum of C(m+j, m) monomials:
    # after delta the left rows have norm at most (order + 1) C(n+order+1, n),
    # and the right rows, two numerator terms of norm k and n-k+1 over one
    # more factor, at most (n + 1) C(n+order+1, n+1); this bounds both
    bound = (order + 1) * math.comb(n + order + 2, n + 1)
    left, right = _PackedSeries(bound), _PackedSeries(bound)
    left.add(0, ())
    right.add(0, ())
    for i in range(n + 1):
        left.divide(i, order + 1)
    for i in range(n + 2):
        right.divide(i, order)
    for k in range(n + 1):
        lhs = _PackedSeries(bound)
        lhs.add_series(k, left, LaurentPoly.one(), order + 1)
        lhs.delta()
        rhs = _PackedSeries(bound)
        rhs.add_series(k, right, q_bracket(n - k + 1).shifted(k), order)
        if k:  # for k = 0 the x^(k-1) term is [0] = 0
            rhs.add_series(k - 1, right, q_bracket(k), order)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Recurrences and reciprocity
# ---------------------------------------------------------------------------


def add_recurrence_check(board: FerrersBoard) -> bool:
    """Adding an empty column: T_k(B with a new empty column) equals
    [n+1-k] T_k(B) + [k+1] q^(n-k) T_{k+1}(B), and the top index vanishes."""
    n = board.n
    grown = FerrersBoard._built((0,) + board.heights)
    t_old = hit_polys(board, "mat")
    t_new = hit_polys(grown, "mat")
    if t_new[n + 1]:
        return False
    for k in range(n + 1):
        rhs = q_bracket(n + 1 - k) * t_old[k]
        if k + 1 <= n:
            rhs = rhs + q_bracket(k + 1) * t_old[k + 1].shifted(n - k)
        if t_new[k] != rhs:
            return False
    return True


def reciprocity_check(board: FerrersBoard) -> bool:
    """T_k(B; 1/q) = q^(-C(n,2)) T_{n-k}(B complement; q) for all k."""
    n = board.n
    comp = complement(board)
    t_b = hit_polys(board, "mat")
    t_c = hit_polys(comp, "mat")
    shift = n * (n - 1) // 2
    return all(
        t_b[k].subs_q_inverse().shifted(shift) == t_c[n - k] for k in range(n + 1)
    )


# ---------------------------------------------------------------------------
# Descent / major-index ladder
# ---------------------------------------------------------------------------


def euler_ladder_check(n: int) -> bool:
    """The four expressions for the maj distribution at fixed descent count:
    shifted hit polynomials of the triangular board and of its complement."""
    tri = triangular_board(n)
    comp = complement(tri)
    t_tri = hit_polys(tri, "mat")
    t_comp = hit_polys(comp, "mat")
    dist = permstat.joint_distribution(permstat.permutations_of(n), permstat.des, permstat.maj)
    binom = n * (n - 1) // 2
    return all(
        dist[k]
        == t_tri[k].shifted(n * k - binom)
        == t_tri[n - k - 1]
        == t_comp[k + 1].shifted(n * k - binom)
        == t_comp[n - k]
        for k in range(n)
    )


def g_identity_check(v: Sequence[int]) -> bool:
    """Multiset maj distribution against the block-board hit polynomials:
    sum_{des=k} q^maj * prod [v_i]! = T_k * q^(nk - Area).  The hit
    polynomials come from the rook recurrence (``defining``), not from the
    word tables that the stat5 check reads."""
    v = tuple(_integral(x) for x in v)
    n = sum(v)
    board = g_board(v)
    t = hit_polys(board, "defining")
    dist = permstat.joint_distribution(permstat.words_over(v), permstat.des, permstat.maj)
    vfact = _widths_factorial(v)
    return all(dist[k] * vfact == t[k].shifted(n * k - board.area) for k in range(n + 1))


def corollary3_check(v: Sequence[int]) -> bool:
    """The maj distribution at fixed descent count over words is zero or
    symmetric unimodal with darga n*k."""
    n = sum(v)
    dist = permstat.joint_distribution(permstat.words_over(v), permstat.des, permstat.maj)
    return all(zsu_check(dist[k], n * k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# Step-board formulas
# ---------------------------------------------------------------------------


def recurrence25_check(spec: StepSpec) -> bool:
    """Peeling off the last block (H_t, d_t): the hit polynomials of the
    truncated board B' rebuilt into those of the full board by eq. (25),

        T_k(B) = [d_t]! sum_r T_r(B') [H_t - r, k - r] [n - H_t + r, d_t + r - k]
                        q^((d_t + r - k)(H_t - k)),

    one :func:`~qrook.placements._eq25_step`.  Both tables are the closed
    form (24), ``hit_polys(..., "eq24")``: the composition formula is
    this step folded over the blocks, so checking the step on its tables
    would check it against itself.  The empty board has nothing to peel
    off; its table must be (1,)."""
    full = hit_polys(spec.expand(), "eq24")
    if not spec.t:
        return full == (LaurentPoly.one(),)
    H, d = spec.block_heights[-1], spec.widths[-1]
    peeled = _eq25_step(hit_polys(spec.truncated().expand(), "eq24"), spec.n - d, H, d)
    return tuple(q_factorial(d) * t for t in peeled) == full


# ---------------------------------------------------------------------------
# Unimodality
# ---------------------------------------------------------------------------


def n_k_target(board: FerrersBoard, k: int) -> int:
    """Area + n(n-k) - C(n+1,2): the darga of the k-hit polynomial of an
    admissible board."""
    n = board.n
    return board.area + n * (n - k) - n * (n + 1) // 2


def hit_zsu_check(board: FerrersBoard) -> bool:
    """Theorem 6: every hit polynomial of an admissible board is zero or
    nonnegative symmetric unimodal with darga Area + n(n-k) - C(n+1,2)."""
    t = hit_polys(board, "mat")
    return all(zsu_check(t[k], n_k_target(board, k)) for k in range(board.n + 1))


def step_zsu_check(spec: StepSpec) -> bool:
    """Theorem 7: for a step board (inadmissible allowed), the hit
    polynomial divided by the block factorials is zero or symmetric
    with darga Area + n(n-k) - sum D_i d_i, and when consecutive widths
    dominate the rises (d_{i-1} + d_i >= h_i) or the column counts
    dominate the heights (D_i >= H_i), it is additionally nonnegative
    and unimodal."""
    refined = spec.condition_overlap() or spec.condition_dominance()
    n = spec.n
    target = darga_target(spec)  # minus n k at k hits
    for k, divided in enumerate(eq24_divided(spec)):
        if refined:  # zsu_check checks the symmetry and the darga too
            if not zsu_check(divided, target - n * k):
                return False
        elif divided and not (is_symmetric(divided) and darga(divided) == target - n * k):
            return False
    return True


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check: str
    instance: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f" {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.check} {self.instance}{suffix}"


def _poly_diff_detail(a: LaurentPoly, b: LaurentPoly) -> str:
    if a == b:
        return ""
    exps = sorted(set(dict(a.items())) | set(dict(b.items())))
    first = next(e for e in exps if a.coefficient(e) != b.coefficient(e))
    return f"first differing exponent {first}: {a} vs {b}"


def _guarded(check: str, instance: str, fn: Callable[..., bool | str], *args) -> CheckResult:
    """Run one check.  It returns whether it holds, or a detail string
    that is empty when it holds; an exception raised inside it becomes a
    FAIL line carrying its message, after its type name unless it is an
    IdentityViolation, and the suite goes on.  An AssertionError escapes:
    it comes from a bare assert, which python -O strips, so as a FAIL line
    it would read PASS under -O."""
    try:
        result = fn(*args)
    except AssertionError:
        raise
    except IdentityViolation as exc:
        return CheckResult(check, instance, False, str(exc))
    except Exception as exc:
        return CheckResult(check, instance, False, f"{type(exc).__name__}: {exc}")
    if isinstance(result, str):
        return CheckResult(check, instance, not result, result)
    return CheckResult(check, instance, result)


def suite_rook(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = str(board)
            yield _guarded("factorization", name, factorization_check, board)
            yield _guarded("rook-sum", name, rook_sum_identity, board)
            flipped = flip(board)
            yield _guarded(
                "flip-invariance",
                name,
                lambda: all(rook_poly(board, k) == rook_poly(flipped, k) for k in range(n + 1)),
            )
        stair = staircase_board(n)
        yield _guarded(
            "staircase-stirling",
            f"n={n}",
            lambda: all(rook_poly(stair, k) == q_stirling(n + 1, n + 1 - k) for k in range(n + 1)),
        )


def _tables_detail(**tables: Sequence[LaurentPoly]) -> str:
    """Empty when the named tables agree; otherwise the first index k
    where they differ, then each table's entry there by name."""
    first, *rest = tables.values()
    k = next((k for k, entry in enumerate(first) if any(t[k] != entry for t in rest)), None)
    return "" if k is None else f"k={k} " + " ".join(f"{name}={table[k]}" for name, table in tables.items())


def _hit_sum_check(board: FerrersBoard) -> bool:
    return sum(hit_polys(board, "mat"), LaurentPoly.zero()) == q_factorial(board.n)


def _hit_classical_check(board: FerrersBoard) -> bool:
    mat, classical = hit_polys(board, "mat"), classical_hit_distribution(board)
    return all(mat[k].evaluate(1) == classical[k] for k in range(board.n + 1))


def suite_hit(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = str(board)
            # the three routes over all permutations; the steps suite checks eq24 and eq26
            yield _guarded(
                "hit-methods-agree",
                name,
                lambda: _tables_detail(**{m: hit_polys(board, m) for m in ("mat", "xi", "defining")}),
            )
            yield _guarded("hit-sum-factorial", name, _hit_sum_check, board)
            yield _guarded("hit-classical-at-1", name, _hit_classical_check, board)


def suite_mahonian(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        # all_step_specs yields each width vector's specs in one run
        specs = all_step_specs(n, admissible_only=True)
        for widths, run in itertools.groupby(specs, key=lambda spec: spec.widths):
            target = q_multinomial(widths)
            for spec in run:
                for family in ("mat", "xi"):
                    yield _guarded(
                        f"{family}-multiset-mahonian",
                        str(spec),
                        lambda: _poly_diff_detail(
                            sum(word_stat_polys(spec, family), LaurentPoly.zero()), target
                        ),
                    )


def _joint_detail(words: list, stat_a: Callable, stat_b: Callable, ref: tuple[LaurentPoly, ...]) -> str:
    return _tables_detail(got=permstat.joint_distribution(words, stat_a, stat_b), ref=ref)


def suite_euler(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield _guarded("euler-ladder", f"n={n}", euler_ladder_check, n)
        perms = list(permstat.permutations_of(n))
        ref = permstat.joint_distribution(perms, permstat.des, permstat.maj)
        for check, stat in (
            ("exc-den-euler-mahonian", permstat.den),
            ("closed-form-exc-stat", permstat.theorem5_stat),
            ("stat7-permutations", permstat.stat7),
        ):
            yield _guarded(check, f"n={n}", _joint_detail, perms, permstat.exc, stat, ref)
        for family in ("mat", "xi"):
            for variant in range(1, 9):
                yield _guarded(
                    "descent-family-euler-mahonian",
                    f"n={n} family={family} variant={variant}",
                    _joint_detail,
                    perms,
                    permstat.des,
                    lambda p: permstat.stat_family(p, family, variant),
                    ref,
                )
    for v in compositions(range(1, max_n + 1)):
        name = "v=" + ",".join(map(str, v))
        yield _guarded("block-board-maj", name, g_identity_check, v)
        words = list(permstat.words_over(v))
        ref = permstat.joint_distribution(words, permstat.des, permstat.maj)
        # the reflected identity: reflection re-indexes the standard lifts,
        # so the excedence-paired distribution over the reversed vector must
        # reproduce the maj distribution over the original one
        rev = tuple(reversed(v))
        for check, vector, family in (
            ("stat5-euler-mahonian", v, "mat"),
            ("stat6-euler-mahonian", v, "xi"),
            ("reflected-block-euler-mahonian", rev, "mat"),
        ):
            yield _guarded(check, name, lambda: _tables_detail(got=_exc_block_joint(vector, family), ref=ref))
        yield _guarded(
            "closed-form-exc-statx",
            name,
            _joint_detail,
            words,
            permstat.exc,
            permstat.theorem5_statx,
            ref,
        )


def _exc_block_joint(v: tuple[int, ...], family: str) -> tuple[LaurentPoly, ...]:
    """The (exc, stat5) table of ``joint_distribution`` over the words of
    v for mat, the (exc, stat6) table for xi, read off the word-statistic
    table of the block board: there the hits of a word are its
    excedences, and the statistic is n*exc - Area plus the lift
    statistic, so entry k is shifted by n*k - Area."""
    spec = g_spec(v)
    n, area = spec.n, spec.area
    return tuple(poly.shifted(n * k - area) for k, poly in enumerate(word_stat_polys(spec, family)))


def suite_reciprocity(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = str(board)
            yield _guarded("reciprocity", name, reciprocity_check, board)
            yield _guarded("add-empty-column", name, add_recurrence_check, board)
            # phi_series raises IdentityViolation on any disagreement
            yield _guarded("series-two-ways", name, lambda: phi_series(board) is not None)
        yield _guarded("delta-identity", f"n={n}", lemma3_delta_check, n)


def suite_ffmat(max_n: int) -> Iterator[CheckResult]:
    definition_board = FerrersBoard((0, 1, 2))
    expected = {
        0: LaurentPoly.one(),
        1: LaurentPoly({2: 2, 1: -1, 0: -1}),
        2: LaurentPoly({3: 1, 2: -2, 1: 1}),
        3: LaurentPoly.zero(),
    }
    yield _guarded(
        "rank-formula-values",
        str(definition_board),
        lambda: all(ffmat.p_k_formula(definition_board, k) == expected[k] for k in range(4)),
    )
    for p in (2, 3):
        name = f"{definition_board} p={p}"
        yield _guarded("elimination-fibers", name, ffmat.fiber_check, definition_board, p)
    for n in range(1, min(max_n, 3) + 1):
        for board in all_ferrers_boards(n):
            for p in (2, 3):
                name = f"{board} p={p}"
                yield _guarded("rank-bridge", name, ffmat.theorem1_check, board, p)
                yield _guarded("rank-sum", name, ffmat.rank_sum_check, board, p)
            yield _guarded("rank-product-identity", str(board), ffmat.corollary2_check, board)
    for n in range(1, min(max_n, 3) + 1):
        for p in (2, 3):
            yield _guarded("upper-triangular-stirling", f"n={n} p={p}", ffmat.corollary1_check, n, p)
    if max_n >= 4:
        yield _guarded("upper-triangular-stirling", "n=4 p=2", ffmat.corollary1_check, 4, 2)


def suite_unimodal(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            yield _guarded("hit-zsu", str(board), hit_zsu_check, board)
        for spec in all_step_specs(n):
            yield _guarded("step-symmetry-zsu", str(spec), step_zsu_check, spec)
    for v in compositions(range(1, max_n + 1)):
        yield _guarded("word-maj-zsu", "v=" + ",".join(map(str, v)), corollary3_check, v)


def _step_formulas_detail(spec: StepSpec) -> str:
    """The two formulas agree divided by the block factorials, and times
    them with the hit polynomials of the expanded board."""
    t = hit_polys(spec.expand(), "mat")
    a, b = eq24_divided(spec), _eq26_divided(spec)
    factorials = _widths_factorial(spec.widths)
    k = next((k for k in range(spec.n + 1) if not (a[k] == b[k] and factorials * a[k] == t[k])), None)
    if k is None:
        return ""
    return f"k={k} eq24={factorials * a[k]} eq26={factorials * b[k]} enumerated={t[k]}"


def suite_steps(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for spec in all_step_specs(n, admissible_only=True):
            name = str(spec)
            yield _guarded("step-formulas-agree", name, _step_formulas_detail, spec)
            yield _guarded("step-truncation-recurrence", name, recurrence25_check, spec)


SUITES: dict[str, Callable[[int], Iterator[CheckResult]]] = {
    "rook": suite_rook,
    "hit": suite_hit,
    "mahonian": suite_mahonian,
    "euler": suite_euler,
    "reciprocity": suite_reciprocity,
    "ffmat": suite_ffmat,
    "unimodal": suite_unimodal,
    "steps": suite_steps,
}


def run_suites(names: Sequence[str], max_n: int) -> Iterator[CheckResult]:
    for name in names:
        yield from SUITES[name](max_n)
