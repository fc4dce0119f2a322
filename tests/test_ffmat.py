import random
import time
import tracemalloc

import pytest
from cli_runner import invoke
from oracles import is_prime_by_trial_division, rank_counts_by_columns

from qrook import ffmat
from qrook.boards import FerrersBoard, all_ferrers_boards, staircase_board
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
from qrook.placements import Placement, enumerate_placements, inv_stat, rook_poly
from qrook.qpoly import LaurentPoly

DEF1 = FerrersBoard((0, 1, 2))


class TestEnumeration:
    def test_trivial_board_only_zero_matrix(self):
        ms = list(enumerate_support_matrices(FerrersBoard((0, 0)), 5))
        assert len(ms) == 1
        entries, rank = ms[0]
        assert all(v == 0 for row in FfMatrix(5, entries).entries for v in row)
        assert rank == 0

    def test_counts(self):
        assert len({m for m, _ in enumerate_support_matrices(DEF1, 2)}) == 8
        assert len({m for m, _ in enumerate_support_matrices(staircase_board(2), 3)}) == 27

    def test_support_respected(self):
        for entries, _ in enumerate_support_matrices(DEF1, 3):
            assert FfMatrix(3, entries).supported_on(DEF1)

    def test_budget_error_names_bound(self):
        message = r"7\^15 = 4747561509943 exceeds the enumeration budget 10000000$"
        with pytest.raises(BudgetExceededError, match=message):
            list(enumerate_support_matrices(staircase_board(5), 7))

    def test_budget_error_is_one_class(self):
        import qrook
        from qrook import placements

        assert qrook.BudgetExceededError is BudgetExceededError is placements.BudgetExceededError
        assert issubclass(BudgetExceededError, ValueError)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            list(enumerate_support_matrices(DEF1, 4))

    def test_budget_checked_before_primality(self, monkeypatch):
        # the budget is O(1), so it is checked before any primality test
        def never(p):
            raise AssertionError("primality tested past the budget")

        monkeypatch.setattr(ffmat, "is_prime", never)
        with pytest.raises(BudgetExceededError, match="exceeds the enumeration budget"):
            list(enumerate_support_matrices(FerrersBoard((1,)), 100000000000031))
        result = invoke(["matrices", "--board", "heights:1", "--prime", "100000000000031"])
        assert result.exit_code == 2
        assert "exceeds the enumeration budget" in result.output


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [p for p in range(10**5) if ffmat.is_prime(p)] == [
            p for p in range(10**5) if is_prime_by_trial_division(p)
        ]

    def test_large_primes(self):
        assert ffmat.is_prime(2**61 - 1) and ffmat.is_prime(10**18 + 3)
        assert not ffmat.is_prime((10**6 + 3) * (2**61 - 1))

    @pytest.mark.parametrize(
        "p",
        [3215031751, 3825123056546413051, 318665857834031151167461],
    )
    def test_strong_pseudoprimes_are_not_prime(self, p):
        # strong pseudoprimes to every prime base up to 7, 23 and 37
        assert not ffmat.is_prime(p)
        result = invoke(["matrices", "--board", "heights:", "--prime", str(p)])
        assert result.exit_code == 2
        assert f"{p} is not prime" in result.output

    def test_undecided_at_the_bound(self):
        bound = ffmat.MILLER_RABIN_BOUND
        with pytest.raises(BudgetExceededError, match="cannot decide whether"):
            ffmat.is_prime(bound)
        result = invoke(["matrices", "--board", "heights:", "--prime", str(bound + 2)])
        assert result.exit_code == 2
        assert "cannot decide whether" in result.output

    def test_zero_area_board_at_a_large_prime(self):
        start = time.perf_counter()
        result = invoke(
            ["matrices", "--board", "heights:", "--prime", "1000000000000000003"]
        )
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0
        assert result.output == "ranks: 1\nTHEOREM1 PASS\n"


def sampled_boards(n: int, p: int, max_matrices: int, count: int) -> list:
    """count admissible n-column boards with p^Area <= max_matrices, drawn
    with seed n * p."""
    pool = [b for b in all_ferrers_boards(n) if p**b.area <= max_matrices]
    return random.Random(n * p).sample(pool, count)


def board_id(value):
    return str(value) if isinstance(value, FerrersBoard) else None


# dict.fromkeys drops a hand-picked case the sampler also drew, so no id
# repeats and pytest leaves every id as it is
WALK_BOARDS = dict.fromkeys(
    [(b, p) for p in (2, 3) for n in range(4) for b in all_ferrers_boards(n)]
    + [(b, p) for n in (4, 5) for p in (2, 3) for b in sampled_boards(n, p, 2**12, 3)]
    # the row walk's odd shapes: few nonzero columns under a tall last one,
    # so rows of small support; one long top row over empty rows; full rows
    # over an empty one
    + [(FerrersBoard(h), p) for h in ((0, 0, 0, 2, 5), (0, 0, 0, 0, 4)) for p in (2, 3)]
    + [(FerrersBoard((1,) * 12), 2), (FerrersBoard((3, 3, 3, 3)), 2)]
    # the primes the rank-count benchmark queries
    + [(b, p) for p in (5, 7) for n in range(3) for b in all_ferrers_boards(n)]
    + [(FerrersBoard((1, 2, 2)), 5), (FerrersBoard((0, 1, 2)), 7)]
)


@pytest.mark.parametrize("board,p", list(WALK_BOARDS), ids=board_id)
def test_walk_against_elimination(board, p):
    seen = set()
    counts = [0] * (board.n + 1)
    for entries, rank in enumerate_support_matrices(board, p):
        m = FfMatrix(p, entries)
        seen.add(entries)
        assert m.supported_on(board)
        # already in normal form: the full constructor changes nothing
        assert m.entries == entries
        assert rank == rank_ff(m)
        counts[rank] += 1
    assert len(seen) == p**board.area
    assert counts == rank_counts_by_columns(board.heights, p)


@pytest.mark.parametrize(
    "board,p",
    [(b, p) for n in (5, 6) for p in (2, 3) for b in sampled_boards(n, p, 2**16, 2)]
    # three full rows over an empty one, 3^12 matrices
    + [(FerrersBoard((3, 3, 3, 3)), 3)]
    # 5^7 matrices at a prime the rank-count benchmark queries
    + [(FerrersBoard((1, 1, 2, 3)), 5)],
    ids=board_id,
)
def test_rank_counts_three_routes(board, p):
    counts = rank_distribution(board, p)
    assert list(counts) == rank_counts_by_columns(board.heights, p)
    assert all(c == p_k_formula(board, k).evaluate(p) for k, c in enumerate(counts))


def test_walk_order():
    # the lower rows outer, each in lexicographic order, the top row innermost:
    # on heights 0,1,2 the bottom row is zero, the middle row (0, 0, c) and
    # the top row (0, a, b)
    expected = [((0, a, b), (0, 0, c), (0, 0, 0)) for c in range(3) for a in range(3) for b in range(3)]
    walked = list(enumerate_support_matrices(DEF1, 3))
    assert [entries for entries, _ in walked] == expected
    assert all(type(entries) is tuple and type(rank) is int for entries, rank in walked)


def test_walk_is_lazy():
    # 2^16 matrices, walked while holding one prefix of lower rows at a time;
    # a list of the 2^15 top rows alone would take megabytes
    board = FerrersBoard((1,) * 16)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_support_matrices(board, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2**16
    assert peak < 2**20


class TestNonIntegralPrime:
    """A prime that is an integral float walks as its int, and any other
    non-integer is a ValueError, whatever rank_distribution's cache holds."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_integral_float_walks_as_int(self, warm):
        rank_distribution.cache_clear()
        try:
            if warm:
                assert rank_distribution(DEF1, 2) == (1, 5, 2, 0)
            assert rank_distribution(DEF1, 2.0) == (1, 5, 2, 0)
            assert theorem1_check(DEF1, 2.0)
            assert rank_sum_check(DEF1, 2.0)
            assert [e for e, _ in enumerate_support_matrices(DEF1, 2.0)] == [
                e for e, _ in enumerate_support_matrices(DEF1, 2)
            ]
        finally:
            rank_distribution.cache_clear()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_fractional_prime_rejected(self, warm):
        rank_distribution.cache_clear()
        try:
            if warm:
                rank_distribution(DEF1, 2)
            for check in (rank_distribution, theorem1_check, rank_sum_check):
                with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
                    check(DEF1, 2.5)
        finally:
            rank_distribution.cache_clear()


class TestRank:
    def test_basics(self):
        zero = FfMatrix(2, ((0, 0, 0),) * 3)
        assert rank_ff(zero) == 0
        ident = FfMatrix(5, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert rank_ff(ident) == 3
        single = FfMatrix(2, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
        assert rank_ff(single) == 1

    def test_n_is_the_side_of_the_square(self):
        assert FfMatrix(2, ((1, 0, 1),) * 3).n == 3
        assert FfMatrix(2, ()).n == 0
        with pytest.raises(ValueError, match="n x n"):
            FfMatrix(2, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(ValueError, match="n x n"):
            FfMatrix(2, ((1, 0), (0,)))

    def test_non_integral_entries_rejected(self):
        assert FfMatrix(3, ((4.0, 0), (0, 1))).entries == ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="not an integer"):
            FfMatrix(3, ((0.5, 0), (0, 1)))

    @pytest.mark.parametrize("p", [-3, 0, 1, 4])
    def test_non_prime_modulus_rejected(self, p):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FfMatrix(p, ((1,),))
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FfMatrix(p, ((2, 0), (0, 2)))

    def test_rank_mod_p_matters(self):
        # (2,1) = 2 * (1,2) over F_3, so the rank drops to 1 there
        m = FfMatrix(3, ((1, 2), (2, 1)))
        assert rank_ff(m) == 1
        m = FfMatrix(5, ((1, 2), (2, 1)))
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

    def test_formula_power_is_the_binomial_row(self):
        # (q-1)^k as signed binomial coefficients equals the k-th power
        q_minus_one = LaurentPoly({1: 1, 0: -1})
        for n in range(6):
            for b in all_ferrers_boards(n):
                for k in range(n + 2):
                    by_power = (q_minus_one**k) * rook_poly(b, k).subs_q_inverse().shifted(b.area - k)
                    assert p_k_formula(b, k) == by_power

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
        m = FfMatrix(2, ((0, 0, 0),) * 3)
        assert elimination_placement(m, DEF1) == Placement(())

    def test_identity_on_full_board(self):
        full = FerrersBoard((2, 2))
        m = FfMatrix(3, ((1, 0), (0, 1)))
        assert elimination_placement(m, full) == Placement.from_permutation((1, 2))

    def test_pivot_is_bottom_most(self):
        full = FerrersBoard((2, 2))
        m = FfMatrix(3, ((1, 0), (1, 0)))
        # column 1 scanned from the bottom: pivot at row 2
        assert elimination_placement(m, full).cells == frozenset({(2, 1)})

    def test_support_violation_rejected(self):
        m = FfMatrix(2, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match="not supported"):
            elimination_placement(m, DEF1)

    @pytest.mark.parametrize(
        "matrix,board,sizes",
        [
            (FfMatrix(2, ((0, 0, 0),) * 3), FerrersBoard((0, 1)), "a 3 x 3 matrix .* 2 columns"),
            (FfMatrix(2, ((0, 1), (0, 0))), DEF1, "a 2 x 2 matrix .* 3 columns"),
        ],
    )
    def test_size_mismatch_rejected(self, matrix, board, sizes):
        with pytest.raises(ValueError, match=sizes):
            elimination_placement(matrix, board)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fiber_sizes(self, p):
        assert fiber_check(DEF1, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fibers_directly(self, p):
        fibers = {}
        for entries, _ in enumerate_support_matrices(DEF1, p):
            c = elimination_placement(FfMatrix(p, entries), DEF1)
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
        assert invoke(["matrices", "--board", "heights:0,1,2", "--prime", "2"]).exit_code == 0
        assert rank_distribution.cache_info().currsize == 1
    finally:
        rank_distribution.cache_clear()
