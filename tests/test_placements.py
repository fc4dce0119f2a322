import random

import pytest

from qrook.boards import (
    all_ferrers_boards,
    board_from_heights,
    flip,
    staircase_board,
    triangular_board,
)
from qrook.placements import (
    Placement,
    classical_hit_distribution,
    cross_stat,
    enumerate_placements,
    factorization_check,
    hit_polys,
    inv_stat,
    mat_stat,
    rook_poly,
    rook_sum_identity,
    xi_stat,
)
from qrook.qpoly import LaurentPoly, q_factorial, q_stirling

from oracles import hit_counts_by_enumeration, rook_numbers, rook_poly_by_cells

DEF1 = board_from_heights((0, 1, 2))  # squares (1,2), (1,3), (2,3)


def P(*cells):
    return Placement.from_cells(cells)


class TestPlacementType:
    def test_non_attacking_enforced(self):
        with pytest.raises(ValueError):
            P((1, 1), (1, 2))
        with pytest.raises(ValueError):
            P((1, 1), (2, 1))

    def test_permutation_round_trip(self):
        p = Placement.from_permutation((2, 1, 3))
        assert p.sigma(3) == (2, 1, 3)
        assert p.transpose().sigma(3) == (2, 1, 3)
        assert Placement.from_permutation((3, 1, 2)).transpose().sigma(3) == (2, 3, 1)
        with pytest.raises(ValueError):
            P((1, 1)).sigma(2)

    def test_reflect(self):
        assert P((1, 3)).reflect(3).cells == frozenset({(1, 3)})
        assert Placement.from_permutation((2, 1)).reflect(2).sigma(2) == (2, 1)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_placements(staircase_board(2), 1))) == 3
        assert list(enumerate_placements(DEF1, 0)) == [P()]
        two = list(enumerate_placements(staircase_board(2), 2))
        assert two == [P((1, 1), (2, 2))]

    def test_impossible_is_empty(self):
        assert list(enumerate_placements(DEF1, 3)) == []

    def test_each_exactly_once(self):
        seen = list(enumerate_placements(staircase_board(3), 2))
        assert len(seen) == len(set(seen))

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_placements(board_from_heights((3,)), 1))


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


def placement_walk(board, k):
    """The enumeration oracle: sum of q^inv over all k-rook placements."""
    counts = {}
    for placement in enumerate_placements(board, k):
        e = inv_stat(placement, board)
        counts[e] = counts.get(e, 0) + 1
    return LaurentPoly(counts)


class TestRookPolyOracles:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_recurrence_matches_placement_walk(self, n):
        for b in all_ferrers_boards(n):
            for k in range(n + 1):
                assert rook_poly(b, k) == placement_walk(b, k)

    @pytest.mark.parametrize(
        "board",
        [board_from_heights((6,) * 6), staircase_board(6), triangular_board(6)],
        ids=str,
    )
    def test_recurrence_matches_placement_walk_at_six(self, board):
        for k in range(7):
            assert rook_poly(board, k) == placement_walk(board, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_identities_on_larger_boards(self, seed):
        rng = random.Random(seed)
        n = rng.randint(10, 15)
        b = board_from_heights(sorted(rng.randint(0, n) for _ in range(n)))
        assert factorization_check(b)
        assert rook_sum_identity(b)

    @pytest.mark.parametrize("heights", [(3,), (2, 3), (0, 4, 4), (1, 1, 5), (4, 4, 4), (2, 5, 6, 6)])
    def test_inadmissible_boards(self, heights):
        b = board_from_heights(heights)
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
        triv = board_from_heights((0, 0, 0))
        assert xi_stat(Placement.from_permutation((1, 2, 3)), triv) == 3

    def test_requires_full_placement(self):
        with pytest.raises(ValueError):
            mat_stat(P((1, 1)), triangular_board(2))
        with pytest.raises(ValueError):
            xi_stat(P((1, 2)), triangular_board(2))

    def test_nonnegative_on_admissible_boards(self):
        import itertools

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


class TestFactorization:
    def test_examples(self):
        assert factorization_check(staircase_board(2))
        assert factorization_check(board_from_heights((0, 0, 0)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_all_boards(self, n):
        for b in all_ferrers_boards(n):
            assert factorization_check(b)
