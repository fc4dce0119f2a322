import pytest
from click.testing import CliRunner

from qrook.boards import all_ferrers_boards, board_from_heights, staircase_board
from qrook.cli import main
from qrook.ffmat import (
    BudgetExceededError,
    FfMatrix,
    corollary1_check,
    corollary2_check,
    elimination_placement,
    enumerate_support_matrices,
    fiber_check,
    p_k_formula,
    rank_distribution,
    rank_ff,
    rank_sum_check,
    theorem1_check,
)
from qrook.placements import Placement, enumerate_placements, inv_stat
from qrook.qpoly import LaurentPoly

DEF1 = board_from_heights((0, 1, 2))


class TestEnumeration:
    def test_trivial_board_only_zero_matrix(self):
        ms = list(enumerate_support_matrices(board_from_heights((0, 0)), 5))
        assert len(ms) == 1
        assert all(v == 0 for row in ms[0].entries for v in row)

    def test_counts(self):
        assert len(list(enumerate_support_matrices(DEF1, 2))) == 8
        assert len(list(enumerate_support_matrices(staircase_board(2), 3))) == 27

    def test_support_respected(self):
        for m in enumerate_support_matrices(DEF1, 3):
            assert m.supported_on(DEF1)

    def test_budget_error_names_bound(self):
        message = r"7\^15 = 4747561509943 exceeds the enumeration budget 10000000$"
        with pytest.raises(BudgetExceededError, match=message):
            list(enumerate_support_matrices(staircase_board(5), 7))

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            list(enumerate_support_matrices(DEF1, 4))


class TestRank:
    def test_basics(self):
        zero = FfMatrix(3, 2, ((0, 0, 0),) * 3)
        assert rank_ff(zero) == 0
        ident = FfMatrix(3, 5, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert rank_ff(ident) == 3
        single = FfMatrix(3, 2, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
        assert rank_ff(single) == 1

    def test_rank_mod_p_matters(self):
        # (2,1) = 2 * (1,2) over F_3, so the rank drops to 1 there
        m = FfMatrix(2, 3, ((1, 2), (2, 1)))
        assert rank_ff(m) == 1
        m = FfMatrix(2, 5, ((1, 2), (2, 1)))
        assert rank_ff(m) == 2


class TestRankCounts:
    def test_definition_board_values(self):
        # rank counts of the three-square board: 1, 2q^2-q-1, q(q-1)^2, 0
        assert rank_distribution(DEF1, 2)[1] == 5
        for p in (2, 3, 5):
            counts = rank_distribution(DEF1, p)
            assert counts[0] == 1
            assert counts[3] == 0
            assert counts[1] == 2 * p * p - p - 1
            assert counts[2] == p * (p - 1) ** 2

    def test_formula_values(self):
        assert p_k_formula(DEF1, 0) == LaurentPoly.one()
        assert p_k_formula(DEF1, 1) == LaurentPoly({2: 2, 1: -1, 0: -1})
        assert p_k_formula(DEF1, 2) == LaurentPoly({3: 1, 2: -2, 1: 1})
        assert p_k_formula(DEF1, 3).is_zero
        assert p_k_formula(staircase_board(3), 0) == LaurentPoly.one()

    @pytest.mark.parametrize("p", [2, 3])
    def test_bridge_small_boards(self, p):
        for n in range(1, 4):
            for b in all_ferrers_boards(n):
                assert theorem1_check(b, p)
                assert rank_sum_check(b, p)

    def test_formula_nonnegative_at_primes(self):
        for b in all_ferrers_boards(3):
            for k in range(4):
                for p in (2, 3, 5):
                    assert p_k_formula(b, k).evaluate(p) >= 0


class TestElimination:
    def test_zero_matrix(self):
        m = FfMatrix(3, 2, ((0, 0, 0),) * 3)
        assert elimination_placement(m, DEF1) == Placement.from_cells([])

    def test_identity_on_full_board(self):
        full = board_from_heights((2, 2))
        m = FfMatrix(2, 3, ((1, 0), (0, 1)))
        assert elimination_placement(m, full) == Placement.from_permutation((1, 2))

    def test_pivot_is_bottom_most(self):
        full = board_from_heights((2, 2))
        m = FfMatrix(2, 3, ((1, 0), (1, 0)))
        # column 1 scanned from the bottom: pivot at row 2
        assert elimination_placement(m, full).cells == frozenset({(2, 1)})

    def test_support_violation_rejected(self):
        m = FfMatrix(3, 2, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match="not supported"):
            elimination_placement(m, DEF1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fiber_sizes(self, p):
        assert fiber_check(DEF1, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fibers_directly(self, p):
        fibers = {}
        for m in enumerate_support_matrices(DEF1, p):
            c = elimination_placement(m, DEF1)
            fibers[c.cells] = fibers.get(c.cells, 0) + 1
        for k in range(4):
            for c in enumerate_placements(DEF1, k):
                expected = (p - 1) ** k * p ** (DEF1.area - k - inv_stat(c, DEF1))
                assert fibers.get(c.cells, 0) == expected


class TestCorollaries:
    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_upper_triangular_stirling(self, n, p):
        assert corollary1_check(n, p)

    def test_product_identity(self):
        for n in range(1, 4):
            for b in all_ferrers_boards(n):
                assert corollary2_check(b)

    def test_rank_distribution_total(self):
        assert sum(rank_distribution(DEF1, 3)) == 3**3


def test_checks_share_one_rank_distribution_entry():
    rank_distribution.cache_clear()
    try:
        assert theorem1_check(DEF1, 2)
        assert rank_sum_check(DEF1, 2)
        # the CLI asks for the same (board, p) key as the checks
        assert CliRunner().invoke(main, ["matrices", "--board", "heights:0,1,2", "--prime", "2"]).exit_code == 0
        assert rank_distribution.cache_info().currsize == 1
    finally:
        rank_distribution.cache_clear()
