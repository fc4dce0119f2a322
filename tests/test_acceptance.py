"""Acceptance suite: every criterion runs at its stated scale with exact
arithmetic and prints one PASS/FAIL line (run with -s to see them)."""

import time

from qrook.boards import (
    FerrersBoard,
    all_ferrers_boards,
    all_step_specs,
    compositions,
)
from qrook.ffmat import (
    corollary1_check,
    fiber_check,
    p_k_formula,
    rank_distribution,
    theorem1_check,
)
from qrook.permstat import (
    den,
    des,
    exc,
    joint_distribution,
    maj,
    permutations_of,
    stat5,
    stat6,
    stat_family,
    theorem5_stat,
    theorem5_statx,
    words_over,
)
from qrook.placements import hit_polys
from qrook.qpoly import IdentityViolation, LaurentPoly, q_factorial
from qrook.verify import (
    SUITES,
    add_recurrence_check,
    corollary3_check,
    euler_ladder_check,
    g_identity_check,
    hit_zsu_check,
    lemma3_delta_check,
    phi_series,
    reciprocity_check,
    step_zsu_check,
)

DEF1 = FerrersBoard((0, 1, 2))


def report(number, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number:02d} {name}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_definition_board_exactness():
    expected = [
        LaurentPoly.one(),
        LaurentPoly({2: 2, 1: -1, 0: -1}),
        LaurentPoly({3: 1, 2: -2, 1: 1}),
        LaurentPoly.zero(),
    ]
    start = time.time()
    ok = all(p_k_formula(DEF1, k) == expected[k] for k in range(4))
    for p in (2, 3, 5):
        counts = rank_distribution(DEF1, p)
        ok = ok and all(counts[k] == expected[k].evaluate(p) for k in range(4))
    ok = ok and time.time() - start < 1.0
    report(1, "definition-board-rank-counts-exact", ok)


def test_criterion_2_rank_count_bridge():
    ok = True
    for n in range(1, 4):
        for board in all_ferrers_boards(n):
            if board.area > 9:
                continue
            for p in (2, 3):
                ok = ok and theorem1_check(board, p)
    for p in (2, 3):
        ok = ok and fiber_check(DEF1, p)
    report(2, "rank-counts-match-formula-and-fibers", ok)


def test_criterion_3_upper_triangular_stirling():
    ok = all(corollary1_check(n, p) for n in (1, 2, 3) for p in (2, 3))
    ok = ok and corollary1_check(4, 2)
    report(3, "upper-triangular-rank-counts-stirling", ok)


def test_criterion_4_hit_polynomial_triple_agreement():
    ok = True
    for n in range(1, 6):
        for board in all_ferrers_boards(n):
            by_method = {m: hit_polys(board, m) for m in ("mat", "xi", "defining")}
            total = LaurentPoly.zero()
            for k in range(n + 1):
                if not (
                    by_method["mat"][k]
                    == by_method["xi"][k]
                    == by_method["defining"][k]
                ):
                    ok = False
                total = total + by_method["mat"][k]
            if total != q_factorial(n):
                ok = False
    report(4, "hit-polynomials-three-methods-agree", ok)


def test_criterion_5_step_formulas():
    ok = all(r.ok for r in SUITES["steps"](5))
    report(5, "step-formulas-match-enumeration-and-recurrence", ok)


def test_criterion_6_euler_mahonian_ladder():
    ok = all(euler_ladder_check(n) for n in range(1, 7))
    for v in compositions(range(1, 7)):
        ok = ok and g_identity_check(v)
        words = list(words_over(v))
        ref = joint_distribution(words, des, maj)
        ok = ok and joint_distribution(words, exc, stat5) == ref
        ok = ok and joint_distribution(words, exc, stat6) == ref
        rev = tuple(reversed(v))
        reflected = joint_distribution(list(words_over(rev)), exc, stat5)
        ok = ok and reflected == ref
        ok = ok and joint_distribution(words, exc, theorem5_statx) == ref
    for n in range(1, 7):
        perms = list(permutations_of(n))
        ref = joint_distribution(perms, des, maj)
        ok = ok and joint_distribution(perms, exc, theorem5_stat) == ref
        ok = ok and joint_distribution(perms, exc, den) == ref
    report(6, "euler-mahonian-ladder-and-closed-forms", ok)


def test_criterion_7_multiset_mahonian():
    ok = all(r.ok for r in SUITES["mahonian"](6))
    report(7, "word-statistics-generate-q-multinomials", ok)


def test_criterion_8_family_distinctness():
    start = time.time()
    perms = list(permutations_of(4)) + list(permutations_of(5))
    vectors = {}
    for family in ("mat", "xi"):
        for variant in range(1, 9):
            vectors[(family, variant)] = tuple(
                stat_family(p, family, variant) for p in perms
            )
    names = sorted(vectors)
    ok = all(
        vectors[a] != vectors[b]
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    maj_vec = tuple(maj(p) for p in perms)
    ok = ok and all(vectors[nm] != maj_vec for nm in names)
    ok = ok and time.time() - start < 60.0
    report(8, "sixteen-statistics-pairwise-distinct", ok)


def test_criterion_9_unimodality():
    ok = True
    for n in range(1, 6):
        for board in all_ferrers_boards(n):
            ok = ok and hit_zsu_check(board)
        for spec in all_step_specs(n):
            ok = ok and step_zsu_check(spec)
    for v in compositions(range(1, 7)):
        ok = ok and corollary3_check(v)
    report(9, "hit-polynomials-symmetric-unimodal", ok)


def test_criterion_10_reciprocity_add_series():
    ok = True
    for n in range(1, 5):
        for board in all_ferrers_boards(n):
            ok = ok and reciprocity_check(board)
            ok = ok and add_recurrence_check(board)
            try:
                phi_series(board, order=n + 3)
            except IdentityViolation:
                ok = False
        ok = ok and lemma3_delta_check(n)
    report(10, "reciprocity-add-recurrence-series-identities", ok)
