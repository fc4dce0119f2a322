"""Identity, recurrence, and unimodality checks, plus the named suites.

Each check returns True on its whole desk-scale domain; a False from a
suite is a build-breaking failure.  Every FAIL line names its check and
instance; the hit-method and step-formula comparisons add the first
disagreeing hit index with each route's polynomial, the multiset-Mahonian
checks the first differing exponent, and a check that raises
IdentityViolation carries its message.  Suites are pure and
embarrassingly parallel across their instances.

The checks fall into four groups:

* series identities: the generating function whose x^k coefficient is
  prod_i [k + c_i - i + 1] both by direct bracket products and by
  dividing the hit-polynomial numerator by (1-x)(1-xq)...(1-xq^n),
  together with the finite-difference operator identity used to add an
  empty column; the series are :class:`~qrook.qpoly.BivariatePoly`
  values truncated at their order, with z standing for x;
* structural recurrences: the empty-column recurrence for hit
  polynomials, and complement reciprocity;
* the descent/major-index ladder on triangular boards and its multiset
  generalization on block boards;
* the step-board formulas: the alternating q-binomial expansion and the
  composition expansion (equal to each other and to the enumerated hit
  polynomials on admissible boards), the truncation recurrence that
  peels off the last block, and the symmetry/unimodality statements
  with their darga bookkeeping.  Each formula yields the whole table
  (T_0, ..., T_n) of a step board, indexed by hits like
  :func:`~qrook.placements.hit_polys`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    board_from_heights,
    complement,
    compositions,
    flip,
    g_board,
    staircase_board,
    triangular_board,
)
from .placements import (
    HIT_METHODS,
    classical_hit_distribution,
    factorization_check,
    hit_polys,
    rook_poly,
    rook_sum_identity,
)
from .qpoly import (
    BivariatePoly,
    IdentityViolation,
    LaurentPoly,
    darga,
    is_symmetric,
    q_binomial,
    q_bracket,
    q_factorial,
    q_multinomial,
    q_stirling,
    zsu_check,
)
from . import permstat
from . import ffmat


# ---------------------------------------------------------------------------
# Series in x over the Laurent ring, held as BivariatePoly with z for x
# ---------------------------------------------------------------------------


def inverse_product_series(m: int, order: int) -> BivariatePoly:
    """1 / ((1-x)(1-xq)...(1-xq^m)) truncated at the given order: by the
    q-binomial theorem its x^j coefficient is [m+j, j]."""
    return BivariatePoly(
        {(e, j): c for j in range(order + 1) for e, c in q_binomial(m + j, j).items()}
    )


def phi_series(board: FerrersBoard, order: int | None = None) -> BivariatePoly:
    """The series with x^k coefficient prod_i [k + c_i - i + 1], computed two
    independent ways; IdentityViolation reports the first coefficient where
    they differ.

    Route A divides sum_k x^k T_{n-k}(B) by (1-x)(1-xq)...(1-xq^n), that
    is, multiplies it by the series sum_j [n+j, j] x^j; route B multiplies
    the brackets directly.  The default order n+3 pushes the brackets past
    their degenerate values.
    """
    n = board.n
    if order is None:
        order = n + 3
    hits = hit_polys(board, "defining")
    numerator = BivariatePoly(
        {(e, k): c for k in range(min(n, order) + 1) for e, c in hits[n - k].items()}
    )
    route_a = (numerator * inverse_product_series(n, order)).truncated(order)
    for k in range(order + 1):
        direct, via_hits = _bracket_product(board.heights, k), route_a.coefficient(k)
        if via_hits != direct:
            raise IdentityViolation(
                f"series mismatch for {board} at x^{k}: "
                f"bracket product gives {direct}, hit-polynomial route gives {via_hits}"
            )
    return route_a


def _bracket_product(heights: tuple[int, ...], k: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for i, c in enumerate(heights, start=1):
        out = out * q_bracket(k + c - i + 1)
        if out.is_zero:
            break
    return out


def lemma3_delta_check(n: int, order: int | None = None) -> bool:
    """delta(x^k / prod_{i=0}^{n}(1-xq^i)) equals
    ([k] x^(k-1) + [n-k+1] q^k x^k) / prod_{i=0}^{n+1}(1-xq^i), for 0<=k<=n.

    The q^k factor follows from expanding the difference quotient:
    (q^k - q^(n+1)) / (q-1) = -q^k [n-k+1].
    """
    if order is None:
        order = n + 3
    base = inverse_product_series(n, order + 1)
    extended = inverse_product_series(n + 1, order)
    for k in range(n + 1):
        lhs = (BivariatePoly({(0, k): 1}) * base).truncated(order + 1).delta()
        # for k = 0 the first numerator term is [0] = 0
        rhs_num = BivariatePoly.from_laurent(q_bracket(k), k - 1) + BivariatePoly.from_laurent(
            q_bracket(n - k + 1).shifted(k), k
        )
        if lhs != (rhs_num * extended).truncated(order):
            return False
    return True


# ---------------------------------------------------------------------------
# Recurrences and reciprocity
# ---------------------------------------------------------------------------


def add_recurrence_check(board: FerrersBoard) -> bool:
    """Adding an empty column: T_k(B with a new empty column) equals
    [n+1-k] T_k(B) + [k+1] q^(n-k) T_{k+1}(B), and the top index vanishes."""
    n = board.n
    grown = board_from_heights((0,) + board.heights)
    t_old = hit_polys(board, "mat")
    t_new = hit_polys(grown, "mat")
    if not t_new[n + 1].is_zero:
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


def maj_by_des(words) -> dict[int, LaurentPoly]:
    """For each descent count, the generating polynomial of maj."""
    buckets: dict[int, dict[int, int]] = {}
    for w in words:
        d, m = permstat.des(w), permstat.maj(w)
        buckets.setdefault(d, {})
        buckets[d][m] = buckets[d].get(m, 0) + 1
    return {d: LaurentPoly(c) for d, c in buckets.items()}


def euler_ladder_check(n: int) -> bool:
    """The four expressions for the maj distribution at fixed descent count:
    shifted hit polynomials of the triangular board and of its complement."""
    tri = triangular_board(n)
    comp = complement(tri)
    t_tri = hit_polys(tri, "mat")
    t_comp = hit_polys(comp, "mat")
    dist = maj_by_des(permstat.permutations_of(n))
    binom = n * (n - 1) // 2
    for k in range(n):
        a_k = dist.get(k, LaurentPoly.zero())
        if a_k != t_tri[k].shifted(n * k - binom):
            return False
        if a_k != t_tri[n - k - 1]:
            return False
        if a_k != t_comp[k + 1].shifted(n * k - binom):
            return False
        if a_k != t_comp[n - k]:
            return False
    return True


def g_identity_check(v: Sequence[int]) -> bool:
    """Multiset maj distribution against the block-board hit polynomials:
    sum_{des=k} q^maj * prod [v_i]! = T_k * q^(nk - Area)."""
    v = tuple(int(x) for x in v)
    n = sum(v)
    board = g_board(v)
    t = hit_polys(board, "mat")
    dist = maj_by_des(permstat.words_over(v))
    vfact = LaurentPoly.one()
    for m in v:
        vfact = vfact * q_factorial(m)
    for k in range(n + 1):
        a_k = dist.get(k, LaurentPoly.zero())
        if a_k * vfact != t[k].shifted(n * k - board.area):
            return False
    return True


def corollary3_check(v: Sequence[int]) -> bool:
    """The maj distribution at fixed descent count over words is zero or
    symmetric unimodal with darga n*k."""
    v = tuple(int(x) for x in v)
    n = sum(v)
    dist = maj_by_des(permstat.words_over(v))
    return all(
        zsu_check(dist.get(k, LaurentPoly.zero()), n * k) for k in range(n + 1)
    )


# ---------------------------------------------------------------------------
# Step-board formulas
# ---------------------------------------------------------------------------


def _widths_factorial(spec: StepSpec) -> LaurentPoly:
    out = LaurentPoly.one()
    for d in spec.widths:
        out = out * q_factorial(d)
    return out


def darga_target(spec: StepSpec, k: int) -> int:
    """Area + n(n-k) - sum_i D_i d_i: the darga of the k-hit polynomial
    divided by the block factorials."""
    n = spec.n
    return spec.area + n * (n - k) - sum(
        D * d for D, d in zip(spec.col_offsets, spec.widths)
    )


def eq24_divided(spec: StepSpec) -> tuple[LaurentPoly, ...]:
    """(T_0, ..., T_n)(B) / prod [d_i]! by the alternating q-binomial
    expansion: with P_s = prod_i [s + H_i - D_(i-1), d_i], the k-hit entry
    is sum_s (-1)^j q^C(j,2) [n+1, j] P_s over s + j = n - k.

    Every surviving term must be symmetric with darga
    ``darga_target(spec, k)``, and a P_s with any negative bracket
    numerator must vanish (the cancellation the closed form relies on);
    IdentityViolation reports a term or product that is not.
    """
    n = spec.n
    H = spec.block_heights
    D = (0,) + spec.col_offsets
    products = []
    for s in range(n + 1):
        prod = LaurentPoly.one()
        for i in range(spec.t):
            prod = prod * q_binomial(s + H[i] - D[i], spec.widths[i])
            if prod.is_zero:
                break
        if not prod.is_zero and any(s + H[i] < D[i] for i in range(spec.t)):
            raise IdentityViolation(f"{spec} s={s}: a negative bracket numerator left {prod}")
        products.append(prod)
    table = []
    for k in range(n + 1):
        target = darga_target(spec, k)
        total = LaurentPoly.zero()
        for s, prod in enumerate(products[: n - k + 1]):
            if prod.is_zero:
                continue
            j = n - k - s
            term = (q_binomial(n + 1, j) * prod).shifted(j * (j - 1) // 2)
            if not (is_symmetric(term) and darga(term) == target):
                raise IdentityViolation(f"{spec} k={k} s={s}: term {term} is not symmetric with darga {target}")
            total = total + (term if j % 2 == 0 else -term)
        table.append(total)
    return tuple(table)


def step_formula(spec: StepSpec, which: str = "eq24") -> tuple[LaurentPoly, ...]:
    """The hit polynomials (T_0, ..., T_n)(B) of a step board, indexed by
    hits as in :func:`~qrook.placements.hit_polys`, by closed formula.

    ``eq24`` multiplies the alternating q-binomial expansion by the
    block factorials; ``eq26`` sums over vectors e with 0 <= e_i <= d_i,
    each adding to the entry with n - sum(e) hits.  Both apply to
    inadmissible boards as well.
    """
    if which == "eq24":
        divided = eq24_divided(spec)
    elif which == "eq26":
        divided = _eq26_divided(spec)
    else:
        raise ValueError(f"unknown step formula {which!r}")
    factorials = _widths_factorial(spec)
    return tuple(factorials * t for t in divided)


def _eq26_divided(spec: StepSpec) -> tuple[LaurentPoly, ...]:
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
            prod = prod * q_binomial(m1, widths[i] - e[i]) * q_binomial(m2, e[i])
            if prod.is_zero:
                break
            exponent += e[i] * (H[i] - D[i + 1] + E)
        if prod.is_zero:
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


def recurrence25_check(spec: StepSpec) -> bool:
    """Peeling off the last block (H_t, d_t): the hit polynomials of the
    full board, rebuilt from the table of the truncated board B' by

        T_k(B) = [d_t]! sum_r T_r(B') [H_t - r, k - r] [n - H_t + r, d_t + r - k]
                 q^((d_t + r - k)(H_t - k)),

    match the table of the full board; both tables come from the
    composition formula."""
    n = spec.n
    d_t = spec.widths[-1]
    H_t = spec.block_heights[-1]
    inner = step_formula(spec.truncated(), "eq26")
    full = step_formula(spec, "eq26")
    dt_fact = q_factorial(d_t)
    for k in range(n + 1):
        total = LaurentPoly.zero()
        for r in range(max(0, k - d_t), min(k, n - d_t) + 1):
            if inner[r].is_zero:
                continue
            coeff = q_binomial(H_t - r, k - r) * q_binomial(n - H_t + r, d_t + r - k)
            if coeff.is_zero:
                continue
            total = total + (inner[r] * coeff).shifted((d_t + r - k) * (H_t - k))
        if dt_fact * total != full[k]:
            return False
    return True


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
    for k, divided in enumerate(eq24_divided(spec)):
        target = darga_target(spec, k)
        if divided.is_zero:
            continue
        if not (is_symmetric(divided) and darga(divided) == target):
            return False
        if refined and not zsu_check(divided, target):
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


def _guarded(check: str, instance: str, fn: Callable[..., bool], *args) -> CheckResult:
    """Run one check; an IdentityViolation raised inside it becomes a FAIL
    line carrying its message, and the suite goes on."""
    try:
        return CheckResult(check, instance, fn(*args))
    except IdentityViolation as exc:
        return CheckResult(check, instance, False, str(exc))


def suite_rook(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = board.spec_string()
            yield CheckResult("factorization", name, factorization_check(board))
            yield CheckResult("rook-sum", name, rook_sum_identity(board))
            flipped = flip(board)
            ok = all(
                rook_poly(board, k) == rook_poly(flipped, k) for k in range(n + 1)
            )
            yield CheckResult("flip-invariance", name, ok)
        stair = staircase_board(n)
        ok = all(
            rook_poly(stair, k) == q_stirling(n + 1, n + 1 - k) for k in range(n + 1)
        )
        yield CheckResult("staircase-stirling", f"n={n}", ok)


def suite_hit(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = board.spec_string()
            mat, xi, defining = (hit_polys(board, m) for m in HIT_METHODS)
            k = next((k for k in range(n + 1) if not mat[k] == xi[k] == defining[k]), None)
            detail = "" if k is None else f"k={k} mat={mat[k]} xi={xi[k]} defining={defining[k]}"
            yield CheckResult("hit-methods-agree", name, k is None, detail)
            total = LaurentPoly.zero()
            for k in range(n + 1):
                total = total + mat[k]
            yield CheckResult("hit-sum-factorial", name, total == q_factorial(n))
            classical = classical_hit_distribution(board)
            at_one = all(mat[k].evaluate(1) == classical[k] for k in range(n + 1))
            yield CheckResult("hit-classical-at-1", name, at_one)


def suite_mahonian(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        # all_step_specs yields each width vector's specs in one run
        specs = all_step_specs(n, admissible_only=True)
        for widths, run in itertools.groupby(specs, key=lambda spec: spec.widths):
            target = q_multinomial(widths)
            words = list(permstat.words_over(widths))
            for spec in run:
                mat_counts: dict[int, int] = {}
                xi_counts: dict[int, int] = {}
                for w in words:
                    e = permstat.mat_word(w, spec)
                    mat_counts[e] = mat_counts.get(e, 0) + 1
                    e = permstat.xi_word(w, spec)
                    xi_counts[e] = xi_counts.get(e, 0) + 1
                name = spec.spec_string()
                got = LaurentPoly(mat_counts)
                yield CheckResult(
                    "mat-multiset-mahonian", name, got == target, _poly_diff_detail(got, target)
                )
                got = LaurentPoly(xi_counts)
                yield CheckResult(
                    "xi-multiset-mahonian", name, got == target, _poly_diff_detail(got, target)
                )


def suite_euler(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield CheckResult("euler-ladder", f"n={n}", euler_ladder_check(n))
        perms = list(permstat.permutations_of(n))
        ref = permstat.joint_distribution(perms, permstat.des, permstat.maj)
        ones = (1,) * n
        for check, stat in (
            ("exc-den-euler-mahonian", permstat.den),
            ("closed-form-exc-stat", permstat.theorem5_stat),
            ("stat7-permutations", lambda p: permstat.stat7(p, ones)),
        ):
            got = permstat.joint_distribution(perms, permstat.exc, stat)
            yield CheckResult(check, f"n={n}", got == ref)
        for family in ("mat", "xi"):
            for variant in range(1, 9):
                got = permstat.joint_distribution(
                    perms,
                    permstat.des,
                    lambda p: permstat.stat_family(p, family, variant),
                )
                yield CheckResult(
                    "descent-family-euler-mahonian",
                    f"n={n} family={family} variant={variant}",
                    got == ref,
                )
    for v in compositions(range(1, max_n + 1)):
        name = "v=" + ",".join(map(str, v))
        yield CheckResult("block-board-maj", name, g_identity_check(v))
        words = list(permstat.words_over(v))
        ref = permstat.joint_distribution(words, permstat.des, permstat.maj)
        # the reflected identity: reflection re-indexes the standard lifts,
        # so the excedence-paired distribution over the reversed vector must
        # reproduce the maj distribution over the original one
        rev = tuple(reversed(v))
        for check, domain, stat in (
            ("stat5-euler-mahonian", words, lambda w: permstat.stat5(w, v)),
            ("stat6-euler-mahonian", words, lambda w: permstat.stat6(w, v)),
            ("reflected-block-euler-mahonian", permstat.words_over(rev), lambda w: permstat.stat5(w, rev)),
            ("closed-form-exc-statx", words, lambda w: permstat.theorem5_statx(w, v)),
        ):
            got = permstat.joint_distribution(domain, permstat.exc, stat)
            yield CheckResult(check, name, got == ref)


def suite_reciprocity(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            name = board.spec_string()
            yield CheckResult("reciprocity", name, reciprocity_check(board))
            yield CheckResult("add-empty-column", name, add_recurrence_check(board))
            # phi_series raises IdentityViolation on any disagreement
            yield _guarded("series-two-ways", name, lambda: phi_series(board) is not None)
        yield CheckResult("delta-identity", f"n={n}", lemma3_delta_check(n))


def suite_ffmat(max_n: int) -> Iterator[CheckResult]:
    definition_board = board_from_heights((0, 1, 2))
    expected = {
        0: LaurentPoly.one(),
        1: LaurentPoly({2: 2, 1: -1, 0: -1}),
        2: LaurentPoly({3: 1, 2: -2, 1: 1}),
        3: LaurentPoly.zero(),
    }
    yield _guarded(
        "rank-formula-values",
        definition_board.spec_string(),
        lambda: all(ffmat.p_k_formula(definition_board, k) == expected[k] for k in range(4)),
    )
    for p in (2, 3):
        name = f"{definition_board.spec_string()} p={p}"
        yield _guarded("elimination-fibers", name, ffmat.fiber_check, definition_board, p)
    for n in range(1, min(max_n, 3) + 1):
        for board in all_ferrers_boards(n):
            for p in (2, 3):
                name = f"{board.spec_string()} p={p}"
                yield _guarded("rank-bridge", name, ffmat.theorem1_check, board, p)
                yield CheckResult("rank-sum", name, ffmat.rank_sum_check(board, p))
            yield _guarded(
                "rank-product-identity", board.spec_string(), ffmat.corollary2_check, board
            )
    for n in range(1, min(max_n, 3) + 1):
        for p in (2, 3):
            yield CheckResult(
                "upper-triangular-stirling", f"n={n} p={p}", ffmat.corollary1_check(n, p)
            )
    if max_n >= 4:
        yield CheckResult(
            "upper-triangular-stirling", "n=4 p=2", ffmat.corollary1_check(4, 2)
        )


def suite_unimodal(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for board in all_ferrers_boards(n):
            yield CheckResult("hit-zsu", board.spec_string(), hit_zsu_check(board))
        for spec in all_step_specs(n):
            yield _guarded("step-symmetry-zsu", spec.spec_string(), step_zsu_check, spec)
    for v in compositions(range(1, max_n + 1)):
        yield CheckResult(
            "word-maj-zsu", "v=" + ",".join(map(str, v)), corollary3_check(v)
        )


def suite_steps(max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for spec in all_step_specs(n, admissible_only=True):
            board = spec.expand()
            t = hit_polys(board, "mat")
            name = spec.spec_string()
            detail = ""
            try:
                a, b = step_formula(spec, "eq24"), step_formula(spec, "eq26")
                k = next((k for k in range(n + 1) if not a[k] == b[k] == t[k]), None)
                if k is not None:
                    detail = f"k={k} eq24={a[k]} eq26={b[k]} enumerated={t[k]}"
            except IdentityViolation as exc:
                detail = str(exc)
            yield CheckResult("step-formulas-agree", name, not detail, detail)
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
