import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrook import ffmat, placements
from qrook.boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    flip,
    staircase_board,
    step_decomposition,
    triangular_board,
)
from qrook.placements import (
    HIT_DP_MAX_STATES,
    BudgetExceededError,
    Placement,
    _hits,
    classical_hit_distribution,
    cross_stat,
    factorization_check,
    hit_polys,
    inv_stat,
    mat_stat,
    rook_poly,
    rook_sum_identity,
    xi_stat,
)
from qrook.qpoly import LaurentPoly, q_factorial, q_stirling

from oracles import hit_counts_by_enumeration, hit_polys_by_permutations, rook_numbers, rook_poly_by_cells
from oracles import on_board_count, reflect, transpose

DEF1 = FerrersBoard((0, 1, 2))  # squares (1,2), (1,3), (2,3)


def P(*cells):
    return Placement(cells)


class TestPlacementType:
    def test_non_attacking_enforced(self):
        with pytest.raises(ValueError):
            P((1, 1), (1, 2))
        with pytest.raises(ValueError):
            P((1, 1), (2, 1))

    def test_non_integral_cells_rejected(self):
        assert P((1.0, 2.0)).cells == frozenset({(1, 2)})
        with pytest.raises(ValueError, match="not an integer"):
            P((1.5, 2.9))

    def test_permutation_round_trip(self):
        p = Placement.from_permutation((2, 1, 3))
        assert p.sigma(3) == (2, 1, 3)
        assert transpose(p).sigma(3) == (2, 1, 3)
        assert transpose(Placement.from_permutation((3, 1, 2))).sigma(3) == (2, 3, 1)
        with pytest.raises(ValueError):
            P((1, 1)).sigma(2)

    def test_reflect(self):
        assert reflect(P((1, 3)), 3).cells == frozenset({(1, 3)})
        assert reflect(Placement.from_permutation((2, 1)), 2).sigma(2) == (2, 1)


class TestInv:
    def test_empty_placement_leaves_area(self):
        for b in (DEF1, staircase_board(3)):
            assert inv_stat(P(), b) == b.area

    def test_examples(self):
        assert inv_stat(P((1, 1)), staircase_board(2)) == 1
        assert inv_stat(P((1, 3)), DEF1) == 2

    def test_off_board_cell_rejected(self):
        with pytest.raises(ValueError, match="off the board"):
            inv_stat(P((2, 1)), DEF1)


class TestRookPoly:
    def test_examples(self):
        assert rook_poly(staircase_board(2), 1) == LaurentPoly({1: 2, 2: 1})
        assert rook_poly(DEF1, 0) == LaurentPoly({3: 1})
        assert rook_poly(DEF1, 1) == LaurentPoly({1: 2, 2: 1})
        assert rook_poly(DEF1, 2) == LaurentPoly.one()

    @pytest.mark.parametrize("n", range(1, 31))
    def test_staircase_gives_stirling(self, n):
        b = staircase_board(n)
        for k in range(n + 1):
            assert rook_poly(b, k) == q_stirling(n + 1, n + 1 - k)

    def test_sum_identity(self):
        for n in range(1, 5):
            for b in all_ferrers_boards(n):
                assert rook_sum_identity(b)


class TestRookPolyOracles:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_recurrence_matches_placement_walk(self, n):
        for b in all_ferrers_boards(n):
            for k in range(n + 1):
                assert rook_poly(b, k) == rook_poly_by_cells(b.heights, k)

    @pytest.mark.parametrize(
        "board",
        [FerrersBoard((6,) * 6), staircase_board(6), triangular_board(6)],
        ids=str,
    )
    def test_recurrence_matches_placement_walk_at_six(self, board):
        for k in range(7):
            assert rook_poly(board, k) == rook_poly_by_cells(board.heights, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_identities_on_larger_boards(self, seed):
        rng = random.Random(seed)
        n = rng.randint(10, 15)
        b = FerrersBoard(sorted(rng.randint(0, n) for _ in range(n)))
        assert factorization_check(b)
        assert rook_sum_identity(b)

    @pytest.mark.parametrize("heights", [(3,), (2, 3), (0, 4, 4), (1, 1, 5), (4, 4, 4), (2, 5, 6, 6)])
    def test_inadmissible_boards(self, heights):
        b = FerrersBoard(heights)
        assert not b.admissible
        numbers = rook_numbers(heights)
        for k in range(b.n + 1):
            assert rook_poly(b, k).evaluate(1) == numbers[k]
            assert rook_poly(b, k) == rook_poly_by_cells(heights, k)

    def test_outside_zero_to_n_is_zero(self):
        assert rook_poly(DEF1, 4) == rook_poly(DEF1, -1) == LaurentPoly.zero()


class TestFullStatistics:
    def test_cross_examples(self):
        tri = triangular_board(2)
        assert cross_stat(Placement.from_permutation((1, 2)), tri) == 4
        assert cross_stat(Placement.from_permutation((2, 1)), tri) == 3
        assert cross_stat(Placement.from_permutation((2, 1)), staircase_board(2)) == 4

    def test_mat_examples(self):
        tri = triangular_board(2)
        assert mat_stat(Placement.from_permutation((1, 2)), tri) == 1
        assert mat_stat(Placement.from_permutation((2, 1)), tri) == 0
        assert mat_stat(Placement.from_permutation((2, 1)), staircase_board(2)) == 1

    def test_xi_examples(self):
        tri = triangular_board(2)
        assert xi_stat(Placement.from_permutation((1, 2)), tri) == 1
        assert xi_stat(Placement.from_permutation((2, 1)), tri) == 0
        # identity on the trivial board: one circle below the diagonal per
        # pair, none cancelled
        triv = FerrersBoard((0, 0, 0))
        assert xi_stat(Placement.from_permutation((1, 2, 3)), triv) == 3

    def test_requires_full_placement(self):
        with pytest.raises(ValueError):
            mat_stat(P((1, 1)), triangular_board(2))
        with pytest.raises(ValueError):
            xi_stat(P((1, 2)), triangular_board(2))

    @pytest.mark.parametrize("stat", [mat_stat, xi_stat, cross_stat])
    def test_requires_columns_one_to_n(self, stat):
        # rows 1..n with a column 0 or n + 1 is no permutation: column 0
        # would read heights[-1], the last column's height
        board = FerrersBoard((1, 2))
        for cells in (((1, 0), (2, 1)), ((1, 1), (2, 3))):
            with pytest.raises(ValueError, match="columns 1..n"):
                stat(P(*cells), board)

    @pytest.mark.parametrize("n", range(5))
    def test_hits_kernel_matches_the_cell_count(self, n):
        for b in all_ferrers_boards(n):
            for sigma in itertools.permutations(range(1, n + 1)):
                assert _hits(sigma, b.heights) == on_board_count(Placement.from_permutation(sigma), b)

    def test_nonnegative_on_admissible_boards(self):
        for n in range(1, 5):
            for b in all_ferrers_boards(n):
                for sigma in itertools.permutations(range(1, n + 1)):
                    p = Placement.from_permutation(sigma)
                    assert mat_stat(p, b) >= 0
                    assert xi_stat(p, b) >= 0


class TestHitPolys:
    def test_triangular2(self):
        tri = triangular_board(2)
        for method in ("mat", "xi", "defining"):
            assert hit_polys(tri, method)[0] == LaurentPoly({1: 1})
            assert hit_polys(tri, method)[1] == LaurentPoly.one()

    def test_staircase2(self):
        b = staircase_board(2)
        assert [hit_polys(b, "defining")[k] for k in range(3)] == [
            LaurentPoly.zero(),
            LaurentPoly({1: 1}),
            LaurentPoly.one(),
        ]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_methods_agree_and_sum_to_factorial(self, n):
        for b in all_ferrers_boards(n):
            polys = {m: hit_polys(b, m) for m in ("mat", "xi", "defining")}
            total = LaurentPoly.zero()
            for k in range(n + 1):
                assert polys["mat"][k] == polys["xi"][k] == polys["defining"][k]
                total = total + polys["mat"][k]
            assert total == q_factorial(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_classical_hit_numbers_at_one(self, n):
        for b in all_ferrers_boards(n):
            counts = hit_counts_by_enumeration(b.heights)
            assert list(classical_hit_distribution(b)) == counts
            for k in range(n + 1):
                assert hit_polys(b, "mat")[k].evaluate(1) == counts[k]

    def test_flip_preserves_rook_polys(self):
        for n in range(1, 5):
            for b in all_ferrers_boards(n):
                f = flip(b)
                for k in range(n + 1):
                    assert rook_poly(b, k) == rook_poly(f, k)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            hit_polys(triangular_board(2), "nope")


def seeded_boards(n: int, count: int) -> list:
    """count admissible boards with n columns, drawn with seed n."""
    rng = random.Random(n)
    return [FerrersBoard(sorted(rng.randint(0, n) for _ in range(n))) for _ in range(count)]


def assert_four_hit_routes_agree(board):
    mat = hit_polys(board, "mat")
    assert mat == hit_polys(board, "xi")
    assert mat == hit_polys(board, "defining")
    assert mat == hit_polys(board, "eq24")


class TestHitRowScan:
    """The mat/xi tables, the word tables of the maximal step decomposition
    times the block factorials, against the permutation walk, and the four
    hit routes against each other past the walk's reach."""

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_permutation_walk(self, n):
        for b in all_ferrers_boards(n):
            for family in ("mat", "xi"):
                assert hit_polys(b, family) == hit_polys_by_permutations(b.heights, family)

    @pytest.mark.parametrize("n,count", [(6, 6), (7, 3)])
    def test_matches_the_permutation_walk_on_seeded_boards(self, n, count):
        for b in seeded_boards(n, count):
            for family in ("mat", "xi"):
                assert hit_polys(b, family) == hit_polys_by_permutations(b.heights, family)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_four_routes_agree_on_seeded_boards(self, n):
        for b in seeded_boards(n, 2):
            assert_four_hit_routes_agree(b)

    @given(st.lists(st.integers(0, 9), max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_four_routes_agree(self, raw):
        n = len(raw)
        assert_four_hit_routes_agree(FerrersBoard(sorted(min(h, n) for h in raw)))

    @pytest.mark.parametrize(
        "heights",
        [
            # one block of 16: 17 states where a scan over column subsets needs 2^16
            (16,) * 16,
            # four blocks of width 5: 6^4 states against 2^20
            (3,) * 5 + (8,) * 5 + (12,) * 5 + (20,) * 5,
        ],
    )
    def test_routes_agree_past_the_subset_budget(self, heights):
        assert 2 ** len(heights) > HIT_DP_MAX_STATES
        assert_four_hit_routes_agree(FerrersBoard(heights))

    def test_state_count_is_decimal_up_to_the_digit_limit(self):
        # str() of an int prints 4,300 digits: 2^14284 has that many, 2^14285 one more
        for n, count in ((14284, str(2**14284)), (14285, "2^14285")):
            with pytest.raises(BudgetExceededError) as raised:
                hit_polys(staircase_board(n), "mat")
            assert f" need {count} position-scan states," in str(raised.value)

    def test_state_budget(self):
        # the first board past the budget; the defining route has no such limit
        n = HIT_DP_MAX_STATES.bit_length()
        big = staircase_board(n)
        for family in ("mat", "xi"):
            with pytest.raises(BudgetExceededError) as raised:
                hit_polys(big, family)
            assert str(raised.value) == (
                f"{family} tables over {n} blocks of total width {n} need {2**n} position-scan states,"
                f" past the budget of {HIT_DP_MAX_STATES}"
            )
        assert sum(t.evaluate(1) for t in hit_polys(big, "defining")) == math.factorial(n)


class TestStepFormulaRoutes:
    # one column of height 3 in a 1 x 1 grid: an inadmissible board
    BOARD = StepSpec(((3, 1),)).expand()

    @pytest.mark.parametrize("method", ["eq24", "eq26"])
    def test_step_formulas_apply_to_an_inadmissible_board(self, method):
        assert hit_polys(self.BOARD, method) == (LaurentPoly({1: -1, 2: -1}), LaurentPoly({0: 1, 1: 1, 2: 1}))

    @pytest.mark.parametrize("method", ["mat", "xi", "defining"])
    def test_other_routes_refuse_an_inadmissible_board(self, method):
        with pytest.raises(ValueError, match="^inadmissible board: only the step formulas eq24/eq26 apply$"):
            hit_polys(self.BOARD, method)

    @pytest.mark.parametrize(
        "board,states",
        [
            # fourteen blocks of width 1: the word DP's budget
            (staircase_board(14), HIT_DP_MAX_STATES),
            # n = 30 in four blocks of widths 8, 8, 7, 7
            (FerrersBoard((4,) * 8 + (11,) * 8 + (19,) * 7 + (30,) * 7), 9 * 9 * 8 * 8),
        ],
        ids=["stair:14", "heights:4x8,11x8,19x7,30x7"],
    )
    def test_word_dp_and_the_step_formulas_agree_at_scale(self, board, states):
        # the statistic route against both step formulas, far past the
        # permutation walk's reach
        assert math.prod(d + 1 for d in step_decomposition(board).widths) == states
        eq24 = hit_polys(board, "eq24")
        for method in ("mat", "xi", "eq26"):
            assert hit_polys(board, method) == eq24, method


class TestFactorization:
    def test_examples(self):
        assert factorization_check(staircase_board(2))
        assert factorization_check(FerrersBoard((0, 0, 0)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_all_boards(self, n):
        for b in all_ferrers_boards(n):
            assert factorization_check(b)

    def test_huge_corruption_fails_rather_than_aliases(self, monkeypatch):
        # E = prod_t (2^(8t) - q) vanishes at q = 2^8, 2^16, ..., 2^64, every
        # width the true norms of stair:3 could give.  Added to R_1, or to
        # P_1 of the rank-product identity, it changes one side at q = 2^w
        # only if w comes from the corrupted norms; then the check fails
        board = staircase_board(3)
        alias = math.prod((LaurentPoly({0: 2 ** (8 * t), 1: -1}) for t in range(1, 9)), start=LaurentPoly.one())
        assert all(alias.evaluate(2 ** (8 * t)) == 0 for t in range(1, 9))
        assert factorization_check(board) and ffmat.corollary2_check(board)  # fills the caches
        rook, rank = rook_poly, ffmat.p_k_formula
        monkeypatch.setattr(
            placements, "rook_poly", lambda b, k: rook(b, k) + alias if (b, k) == (board, 1) else rook(b, k)
        )
        monkeypatch.setattr(ffmat, "p_k_formula", lambda b, k: rank(b, k) + alias if k == 1 else rank(b, k))
        assert not factorization_check(board)
        assert not ffmat.corollary2_check(board)
