import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrook.boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    complement,
    flip,
    g_board,
    g_spec,
    parse_board_spec,
    staircase_board,
    step_decomposition,
    triangular_board,
)

from oracles import board_cells


class TestConstruction:
    def test_from_heights(self):
        b = FerrersBoard((0, 1, 2))
        assert b.n == 3 and b.area == 3 and b.admissible
        assert sorted(board_cells(b)) == [(1, 2), (1, 3), (2, 3)]

    def test_prefix_equals_the_validated_board(self):
        b = FerrersBoard((0, 1, 1, 3))
        for n in range(5):
            prefix = b._prefix(n)
            assert prefix == FerrersBoard(b.heights[:n])
            assert hash(prefix) == hash(FerrersBoard(b.heights[:n]))

    def test_trivial_board(self):
        b = FerrersBoard((0, 0, 0))
        assert b.area == 0 and board_cells(b) == []

    def test_rejects_decreasing_and_negative(self):
        with pytest.raises(ValueError, match="not a Ferrers board"):
            FerrersBoard((2, 1))
        with pytest.raises(ValueError):
            FerrersBoard((-1, 0))

    def test_non_integral_heights_rejected(self):
        assert FerrersBoard((0.0, 2.0)).heights == (0, 2)
        with pytest.raises(ValueError, match="not an integer"):
            FerrersBoard((0.5, 1.7))
        assert g_board((1.0, 2.0)) == g_board((1, 2))
        with pytest.raises(ValueError, match="not an integer"):
            g_board((1.5, 2))

    def test_named_families(self):
        assert triangular_board(2).heights == (0, 1)
        assert triangular_board(7).heights == (0, 1, 2, 3, 4, 5, 6)
        assert triangular_board(7).area == 21
        assert triangular_board(1).heights == (0,)
        assert staircase_board(2).heights == (1, 2)
        assert staircase_board(2).area == 3
        assert staircase_board(1).heights == (1,)
        assert staircase_board(4).area == 10

    def test_g_board(self):
        assert g_board((1, 1)) == triangular_board(2)
        assert g_board((4,)).heights == (0, 0, 0, 0)
        assert g_board((2, 3, 2)).heights == (0, 0, 2, 2, 2, 5, 5)

    def test_g_spec_satisfies_dominance(self):
        for v in [(1, 1), (2, 3, 2), (3, 1, 2)]:
            spec = g_spec(v)
            assert spec.condition_dominance()
            assert spec.expand() == g_board(v)

    def test_inadmissible_is_tagged(self):
        b = FerrersBoard((3,))
        assert not b.admissible


class TestTransforms:
    def test_complement_examples(self):
        assert complement(triangular_board(2)).heights == (1, 2)
        assert complement(FerrersBoard((0, 0))).heights == (2, 2)
        assert complement(FerrersBoard((3, 3, 3))).heights == (0, 0, 0)

    def test_complement_involution_and_area(self):
        for n in range(1, 6):
            for b in all_ferrers_boards(n):
                c = complement(b)
                assert complement(c) == b
                assert b.area + c.area == n * n

    def test_flip_examples(self):
        assert flip(FerrersBoard((2, 2))).heights == (2, 2)
        assert flip(FerrersBoard((0, 1))).heights == (0, 1)
        assert flip(FerrersBoard((0, 0, 1))).heights == (0, 0, 1)

    def test_flip_is_cell_set_reflection(self):
        for n in range(1, 6):
            for b in all_ferrers_boards(n):
                reflected = {(n - j + 1, n - i + 1) for (i, j) in board_cells(b)}
                f = flip(b)
                assert set(board_cells(f)) == reflected
                assert f.area == b.area
                assert flip(f) == b

    def test_transforms_reject_inadmissible(self):
        tall = FerrersBoard((3,))
        with pytest.raises(ValueError):
            complement(tall)
        with pytest.raises(ValueError):
            flip(tall)


class TestSteps:
    def test_step_decomposition_examples(self):
        assert step_decomposition(FerrersBoard((1, 2))).steps == ((1, 1), (1, 1))
        assert step_decomposition(FerrersBoard((0, 0, 2, 2, 2, 5, 5))).steps == (
            (0, 2),
            (2, 3),
            (3, 2),
        )
        assert step_decomposition(FerrersBoard((3, 3, 3))).steps == ((3, 3),)

    def test_spec_partial_sums(self):
        spec = StepSpec(((0, 2), (2, 3), (3, 2)))
        assert spec.block_heights == (0, 2, 5)
        assert spec.col_offsets == (2, 5, 7)
        assert spec.n == 7 and spec.area == 16
        assert spec.admissible

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StepSpec(((0, 0),))
        with pytest.raises(ValueError):
            StepSpec(((-1, 2),))

    def test_non_integral_steps_rejected(self):
        assert StepSpec(((1.0, 2.0),)).steps == ((1, 2),)
        with pytest.raises(ValueError, match="not an integer"):
            StepSpec(((1.9, 2.2),))
        assert g_spec((1.0, 2.0)) == g_spec((1, 2))
        with pytest.raises(ValueError, match="not an integer"):
            g_spec((1.5, 2))

    def test_conditions(self):
        assert StepSpec(((3, 1),)).condition_overlap() is False
        assert StepSpec(((1, 2), (2, 1))).condition_overlap()
        assert StepSpec(((2, 1),)).condition_dominance() is False
        assert g_spec((2, 1, 3)).condition_dominance()


@given(st.lists(st.integers(0, 6), min_size=1, max_size=7))
@settings(max_examples=80)
def test_expand_decompose_round_trip(raw):
    heights = tuple(sorted(raw))
    board = FerrersBoard(heights)
    spec = step_decomposition(board)
    assert spec.expand() == board
    # the decomposition uses maximal runs: all rises after the first positive
    assert all(h > 0 for h, _ in spec.steps[1:])
    assert step_decomposition(spec.expand()) == spec


def test_families():
    assert sum(1 for _ in all_ferrers_boards(3)) == 20
    specs = list(all_step_specs(3))
    assert len(specs) == len(set(specs))
    assert all(s.n == 3 for s in specs)
    admissible = list(all_step_specs(3, admissible_only=True))
    assert all(s.admissible for s in admissible)
    assert len(admissible) < len(specs)


class TestParse:
    def test_grammar(self):
        assert parse_board_spec("heights:0,1,2").heights == (0, 1, 2)
        assert parse_board_spec("steps:1x1,1x1") == staircase_board(2)
        assert parse_board_spec("tri:7") == triangular_board(7)
        assert parse_board_spec("stair:4") == staircase_board(4)
        assert parse_board_spec("gv:2,3,2") == g_board((2, 3, 2)) == g_spec((2, 3, 2)).expand()

    def test_spec_strings_round_trip(self):
        # the empty board and empty spec are spelled "heights:" and "steps:"
        for n in range(5):
            for board in all_ferrers_boards(n):
                assert parse_board_spec(str(board)) == board
        specs = [StepSpec(())] + [s for n in range(1, 4) for s in all_step_specs(n)]
        for spec in specs:
            assert parse_board_spec(str(spec)) == spec.expand()

    @pytest.mark.parametrize(
        "bad", ["nope:3", "heights:2,1", "steps:1", "tri:x", "plain"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_board_spec(bad)
