import math
import random
import re

import pytest

import qrook
from qrook.boards import (
    StepSpec,
    all_step_specs,
    complement,
    compositions,
    g_board,
    g_spec,
    triangular_board,
)
from qrook.permstat import (
    _reflect_sigma,
    b_regular_graph,
    b_standard_graph,
    den,
    des,
    descent_graph,
    exc,
    joint_distribution,
    maj,
    mat_word,
    parse_word,
    permutations_of,
    reverse_perm,
    stat5,
    stat6,
    stat7,
    stat_family,
    theorem5_stat,
    theorem5_statx,
    words_over,
    xi_word,
)
from qrook.placements import HIT_DP_MAX_STATES, BudgetExceededError, Placement, mat_stat, word_stat_polys, xi_stat
from qrook.qpoly import LaurentPoly, q_factorial, q_multinomial
from qrook.verify import _exc_block_joint

from oracles import joint_pairs, lifts, word_stat_polys_by_words
from oracles import on_board_count, reflect, transpose, word_of_placement


def specs_rising_at_most(n: int, rise: int) -> list[StepSpec]:
    """The admissible step specs of width n whose rises are at most rise,
    in the order of all_step_specs."""
    return [s for s in all_step_specs(n, admissible_only=True) if all(h <= rise for h, _ in s.steps)]


TWO_BLOCKS = StepSpec(((0, 1), (1, 1)))
# the functions that read a word's letters as ints: those that index lists by
# letter, and the permutation statistics, which check the letters they compare
INDEXING_BY_LETTER = {
    "mat_word": lambda w: mat_word(w, TWO_BLOCKS),
    "xi_word": lambda w: xi_word(w, TWO_BLOCKS),
    "b_standard_graph": lambda w: b_standard_graph(w, TWO_BLOCKS),
    "b_regular_graph": lambda w: b_regular_graph(w, TWO_BLOCKS),
    "stat5": stat5,
    "stat6": stat6,
    "stat7": stat7,
    "theorem5_statx": theorem5_statx,
    "descent_graph": descent_graph,
    "stat_family": stat_family,
    "stat_family_reversed": lambda w: stat_family(w, "xi", 8),
    "theorem5_stat": theorem5_stat,
    "den": den,
}


class TestWords:
    @pytest.mark.parametrize("name", list(INDEXING_BY_LETTER))
    @pytest.mark.parametrize("letters", [(1.0, 2.0), (1.5, 2)], ids=["integral", "fractional"])
    def test_tuple_letters_read_like_list_letters(self, name, letters):
        entry = INDEXING_BY_LETTER[name]
        if letters == (1.5, 2):
            for word in (letters, list(letters)):
                with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
                    entry(word)
        else:
            results = [entry(letters), entry(list(letters)), entry((1, 2))]
            assert results[0] == results[1] == results[2]
            assert len({type(r) for r in results}) == 1

    def test_letters_below_one_or_not_integral_rejected(self):
        for stat in (stat5, stat6, stat7, theorem5_statx):
            assert stat([2.0, 1.0]) == stat((2, 1))
            for word in ((0, 1), (1, 0), (2, -1), [1.5, 1]):
                with pytest.raises(ValueError):
                    stat(word)
        for literal in ("0", "10", "1,0,2", "2,-1"):
            with pytest.raises(ValueError, match="below 1"):
                parse_word(literal)

    def test_words_over(self):
        ws = list(words_over((2, 1)))
        assert ws == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert list(words_over((2.0, 1.0))) == ws
        with pytest.raises(ValueError, match="not an integer"):
            list(words_over((1.5, 1)))
        assert len(list(words_over((2, 2, 1)))) == math.factorial(5) // 4
        assert list(words_over((0, 2))) == [(2, 2)]
        for v in ((-1, 2), (2, -1), (-1,)):
            with pytest.raises(ValueError, match="nonnegative"):
                words_over(v)

    def test_permutations_of(self):
        assert list(permutations_of(0)) == [()]
        assert list(permutations_of(2)) == [(1, 2), (2, 1)]
        with pytest.raises(ValueError, match="nonnegative"):
            permutations_of(-2)

    def test_parse_word(self):
        assert parse_word("2313212") == (2, 3, 1, 3, 2, 1, 2)
        assert parse_word("2,3,1,3,2,1,2") == (2, 3, 1, 3, 2, 1, 2)
        assert parse_word("10,2") == (10, 2)
        for literal in ("12a", ",", "1,,2", "1,a", "", "²"):
            with pytest.raises(ValueError, match=f"malformed word literal {re.escape(repr(literal))}"):
                parse_word(literal)


class TestClassicalStats:
    def test_des_maj(self):
        assert des((3, 5, 2, 1, 6, 4, 7)) == 3
        assert maj((3, 5, 2, 1, 6, 4, 7)) == 10
        assert des((1, 1, 2, 3)) == 0 and maj((1, 1, 2, 3)) == 0
        n = 5
        dec = tuple(range(n, 0, -1))
        assert des(dec) == n - 1 and maj(dec) == n * (n - 1) // 2

    def test_exc(self):
        assert exc((2, 3, 1, 3, 2, 1, 2)) == 3
        assert exc((1, 1, 2, 2)) == 0
        assert exc((2, 1)) == 1

    def test_den(self):
        assert den((1, 2, 3)) == 0
        assert den((2, 1)) == 1
        assert den((2, 3, 1)) == 3
        with pytest.raises(ValueError):
            den((1, 1, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exc_den_euler_mahonian(self, n):
        perms = list(permutations_of(n))
        assert joint_distribution(perms, exc, den) == joint_distribution(
            perms, des, maj
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_den_from_circle_statistic(self, n):
        comp = complement(triangular_board(n))
        for p in permutations_of(n):
            transposed = transpose(Placement.from_permutation(p))
            assert den(p) == n * exc(p) - xi_stat(transposed, comp)


class TestGraphs:
    def test_graph(self):
        assert Placement.from_permutation((1, 2)).cells == frozenset({(1, 1), (2, 2)})

    def test_word_of_placement(self):
        assert word_of_placement(Placement.from_permutation((2, 1)), (2,)) == (1, 1)
        p = Placement([(1, 3), (2, 1), (3, 2)])
        assert word_of_placement(p, (2, 1)) == (2, 1, 1)

    def test_standard_examples(self):
        triv2 = StepSpec(((0, 2),))
        assert b_standard_graph((1, 1), triv2).cells == frozenset({(1, 1), (2, 2)})
        assert b_regular_graph((1, 1), triv2).cells == frozenset({(1, 2), (2, 1)})

    def test_singleton_blocks_give_plain_graph(self):
        spec = StepSpec(((1, 1), (1, 1), (1, 1)))
        for p in permutations_of(3):
            assert b_standard_graph(p, spec) == Placement.from_permutation(p)
            assert b_regular_graph(p, spec) == Placement.from_permutation(p)

    def test_word_mismatch_rejected(self):
        with pytest.raises(ValueError):
            b_standard_graph((1, 1, 1), StepSpec(((0, 2), (1, 1))))

    @pytest.mark.parametrize("entry", [b_standard_graph, b_regular_graph, mat_word, xi_word])
    @pytest.mark.parametrize("word", [(0, 1), (-1, 2), (3, 1)])
    def test_letters_outside_the_blocks_rejected(self, entry, word):
        # a letter names a block 1..t; 0 and -1 must not count from the last block
        with pytest.raises(ValueError, match="block widths"):
            entry(word, StepSpec(((0, 1), (1, 1))))

    @pytest.mark.parametrize("entry", [b_standard_graph, b_regular_graph, mat_word, xi_word])
    def test_inadmissible_spec_rejected(self, entry):
        # block heights 3, 4 do not fit in the 2 x 2 grid
        with pytest.raises(ValueError, match="admissible"):
            entry((1, 2), StepSpec(((3, 1), (1, 1))))
        # the letters are read first and checked against the blocks last
        with pytest.raises(ValueError, match="not an integer"):
            entry([1.5, 1], StepSpec(((3, 1), (1, 1))))
        with pytest.raises(ValueError, match="admissible"):
            entry((3, 1), StepSpec(((3, 1), (1, 1))))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bijections_round_trip(self, n):
        for spec in specs_rising_at_most(n, 2):
            for w in words_over(spec.widths):
                std = b_standard_graph(w, spec)
                reg = b_regular_graph(w, spec)
                assert word_of_placement(std, spec.widths) == w
                assert word_of_placement(reg, spec.widths) == w

    @pytest.mark.parametrize("n", range(1, 5))
    def test_canonical_lifts_minimize(self, n):
        for spec in specs_rising_at_most(n, 2):
            board = spec.expand()
            dfact = LaurentPoly.one()
            for d in spec.widths:
                dfact = dfact * q_factorial(d)
            for w in words_over(spec.widths):
                mats = [mat_stat(c, board) for c in lifts(w, spec.widths)]
                xis = [xi_stat(c, board) for c in lifts(w, spec.widths)]
                assert min(mats) == mat_word(w, spec)
                assert min(xis) == xi_word(w, spec)
                # the lift sum collapses to the canonical value times [d]!
                assert LaurentPoly(
                    {v: mats.count(v) for v in set(mats)}
                ) == dfact.shifted(mat_word(w, spec)) and LaurentPoly(
                    {v: xis.count(v) for v in set(xis)}
                ) == dfact.shifted(xi_word(w, spec))

    def test_mat_word_example(self):
        assert mat_word((1, 1), StepSpec(((0, 2),))) == 0

    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_exc_counts_hits_in_every_lift(self, v):
        board = g_board(v)
        for w in words_over(v):
            e = exc(w)
            assert all(on_board_count(c, board) == e for c in lifts(w, v))


class TestDescentGraph:
    def test_paper_worked_example(self):
        f = descent_graph((3, 5, 2, 1, 6, 4, 7))
        assert f.cells == frozenset(
            {(5, 3), (2, 5), (1, 2), (3, 1), (4, 6), (6, 4), (7, 7)}
        )
        assert on_board_count(f, triangular_board(7)) == 3

    def test_identity_gives_diagonal(self):
        f = descent_graph((1, 2, 3, 4))
        assert f.cells == frozenset({(i, i) for i in range(1, 5)})
        assert on_board_count(f, triangular_board(4)) == 0

    def test_reflection_maps_to_another_descent_graph(self):
        sigma = _reflect_sigma(descent_graph((3, 5, 2, 1, 6, 4, 7)).sigma(7))
        assert Placement.from_permutation(sigma) == descent_graph((1, 4, 2, 5, 7, 6, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reflect_sigma_matches_the_cell_reflection(self, n):
        for p in permutations_of(n):
            reflected = Placement.from_permutation(_reflect_sigma(p))
            assert reflected == reflect(Placement.from_permutation(p), n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rooks_on_triangular_board_count_descents(self, n):
        tri = triangular_board(n)
        seen = set()
        for p in permutations_of(n):
            f = descent_graph(p)
            assert on_board_count(f, tri) == des(p)
            seen.add(f.cells)
        # the construction is a bijection onto full placements
        assert len(seen) == math.factorial(n)


class TestStatFamilies:
    @pytest.mark.parametrize("family", ["mat", "xi"])
    @pytest.mark.parametrize("variant", range(1, 9))
    def test_euler_mahonian_small(self, family, variant):
        for n in range(1, 5):
            perms = list(permutations_of(n))
            ref = joint_distribution(perms, des, maj)
            got = joint_distribution(
                perms, des, lambda p: stat_family(p, family, variant)
            )
            assert got == ref

    def test_variant1_closed_form(self):
        # n*des - C(n,2) + crossing statistic equals n^2 - cross directly
        from qrook.placements import cross_stat

        n = 4
        tri = triangular_board(n)
        for p in permutations_of(n):
            f = descent_graph(p)
            assert stat_family(p, "mat", 1) == n * n - cross_stat(f, tri)

    def test_alternate_shift_convention_fails(self):
        # variant 2 without the shift n*des - C(n,2) of its unreflected
        # sibling is not Euler-Mahonian
        n = 4
        perms = list(permutations_of(n))
        ref = joint_distribution(perms, des, maj)
        got = joint_distribution(
            perms, des, lambda p: stat_family(p, "mat", 2) - (n * des(p) - n * (n - 1) // 2)
        )
        assert got != ref

    def test_variant3_uses_reversal(self):
        p = (2, 3, 1)
        tri = triangular_board(3)
        assert stat_family(p, "mat", 3) == mat_stat(
            descent_graph(reverse_perm(p)), tri
        )

    def test_complements(self):
        for p in permutations_of(4):
            for variant in range(1, 5):
                assert stat_family(p, "xi", variant + 4) == 4 * des(p) - stat_family(
                    p, "xi", variant
                )

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            stat_family((1, 2), "mat", 9)
        with pytest.raises(ValueError):
            stat_family((1, 2), "nope", 1)


class TestBlockStatistics:
    def test_stat5_example(self):
        assert stat5((2, 1)) == 1
        assert stat5((1, 2)) == 0

    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_stat5_stat6_euler_mahonian(self, v):
        words = list(words_over(v))
        ref = joint_distribution(words, des, maj)
        assert joint_distribution(words, exc, stat5) == ref
        assert joint_distribution(words, exc, stat6) == ref

    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_reflected_identity(self, v):
        # maj distribution is invariant under reversing the multiplicities,
        # so the excedence statistic over the reversed vector matches it
        rev = tuple(reversed(v))
        lhs = joint_distribution(words_over(rev), exc, stat5)
        rhs = joint_distribution(words_over(v), des, maj)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 6))
    def test_stat7_on_permutations(self, n):
        perms = list(permutations_of(n))
        ref = joint_distribution(perms, des, maj)
        assert joint_distribution(perms, exc, stat7) == ref

    def test_stat7_differs_from_stat5(self):
        assert any(stat7(p) != stat5(p) for p in permutations_of(4))


def seeded_specs(n: int, count: int) -> list[StepSpec]:
    """count admissible step specs of total width n within the position-scan
    budget, drawn with seed n: random widths, sorted random block heights."""
    rng = random.Random(n)
    specs = []
    while len(specs) < count:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(6, n) - 1)))
        widths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if math.prod(d + 1 for d in widths) > HIT_DP_MAX_STATES:
            continue
        heights = sorted(rng.randint(0, n) for _ in widths)
        rises = [b - a for a, b in zip([0] + heights, heights)]
        specs.append(StepSpec(tuple(zip(rises, widths))))
    return specs


class TestWordStatPolys:
    """The position-scan tables against the word walk, and the multiset
    Mahonian theorem past the walk's reach."""

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_word_walk(self, n):
        for spec in all_step_specs(n, admissible_only=True):
            for family in ("mat", "xi"):
                assert word_stat_polys(spec, family) == word_stat_polys_by_words(spec, family)

    def test_matches_the_word_walk_on_seeded_specs(self):
        specs = list(all_step_specs(6, admissible_only=True))
        for spec in random.Random(6).sample(specs, 20):
            for family in ("mat", "xi"):
                assert word_stat_polys(spec, family) == word_stat_polys_by_words(spec, family)

    @pytest.mark.parametrize("n", range(10, 21, 2))
    def test_generates_the_q_multinomial_past_enumeration(self, n):
        specs = seeded_specs(n, 2)
        if n == 20:
            # about 3*10^11 words
            specs.append(StepSpec(((3, 4), (5, 4), (2, 4), (6, 4), (4, 4))))
        for spec in specs:
            target = q_multinomial(spec.widths)
            for family in ("mat", "xi"):
                table = word_stat_polys(spec, family)
                assert len(table) == n + 1
                total = LaurentPoly.zero()
                for poly in table:
                    total = total + poly
                assert total == target, (spec, family)

    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_block_board_tables_give_stat5_stat6(self, v):
        # the euler suite's route to the (exc, stat5) and (exc, stat6)
        # distributions, against the statistics of every word
        words = list(words_over(v))
        for family, stat in (("mat", stat5), ("xi", stat6)):
            assert _exc_block_joint(v, family) == joint_distribution(words, exc, stat)

    def test_is_the_hit_polynomial_dp(self):
        # one dynamic program serves the word tables and the mat/xi hit
        # tables; the package exports it from placements under one name
        assert qrook.word_stat_polys is word_stat_polys
        assert not hasattr(qrook.permstat, "word_stat_polys")

    def test_state_budget(self):
        # fifteen singleton blocks need 2^15 states, the first count past 2^14
        spec = StepSpec(((0, 1),) * 15)
        for family in ("mat", "xi"):
            with pytest.raises(BudgetExceededError) as raised:
                word_stat_polys(spec, family)
            assert str(raised.value) == (
                f"{family} tables over 15 blocks of total width 15 need 32768 position-scan states,"
                f" past the budget of {HIT_DP_MAX_STATES}"
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown statistic family"):
            word_stat_polys(StepSpec(((0, 1),)), "nope")
        with pytest.raises(ValueError, match="admissible"):
            word_stat_polys(StepSpec(((2, 1),)), "mat")


class TestClosedForms:
    def test_values(self):
        assert theorem5_stat((1, 2)) == 0
        assert theorem5_stat((2, 1)) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exc_pairing(self, n):
        perms = list(permutations_of(n))
        ref = joint_distribution(perms, des, maj)
        assert joint_distribution(perms, exc, theorem5_stat) == ref

    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_is_crossing_statistic_of_transpose(self, n):
        comp = complement(triangular_board(n))
        for p in permutations_of(n):
            assert theorem5_stat(p) == mat_stat(transpose(Placement.from_permutation(p)), comp)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cross_decomposition(self, n):
        # cross = n + #X - #XX, with the two pieces computed positionally
        from qrook.placements import cross_stat

        comp = complement(triangular_board(n))
        for p in permutations_of(n):
            s = p
            n_plus_x = (
                n * (n + 1) // 2
                + sum(n - s[i] + (i + 1) for i in range(n) if s[i] > i + 1)
                + sum(s[i] - 1 for i in range(n) if s[i] <= i + 1)
            )
            xx = 0
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    si, sj = s[i - 1], s[j - 1]
                    if si > sj > j:
                        xx += 1
                    if si <= j < sj:
                        xx += 1
                    if si < sj <= j:
                        xx += 1
            assert cross_stat(transpose(Placement.from_permutation(p)), comp) == n_plus_x - xx

    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_multiset_closed_form(self, v):
        words = list(words_over(v))
        ref = joint_distribution(words, des, maj)
        assert joint_distribution(words, exc, theorem5_statx) == ref
        # the closed form evaluates the block-board crossing statistic exactly
        for w in words:
            assert theorem5_statx(w) == stat5(w)


def test_g_spec_matches_block_reading():
    spec = g_spec((2, 3, 2))
    assert spec.widths == (2, 3, 2)
    assert spec.block_heights == (0, 2, 5)


class TestJointDistribution:
    @pytest.mark.parametrize("v", list(compositions(range(1, 6))))
    def test_table_matches_pairs(self, v):
        # entry a of the table holds q^b for every pair (a, b) of the oracle
        words = list(words_over(v))
        n = sum(v)
        for stat_a, stat_b in (
            (des, maj),
            (exc, theorem5_statx),
            # maj < n*des on a word with descents, so this goes negative
            (des, lambda w: maj(w) - n * des(w)),
        ):
            table = joint_distribution(words, stat_a, stat_b)
            assert len(table) == n + 1
            pairs = {(a, b): c for a, poly in enumerate(table) for b, c in poly.items()}
            assert pairs == joint_pairs(words, stat_a, stat_b)
        if len(v) > 1:
            # some word has one descent, and the last stat_b was negative on it
            assert table[1].min_exp < 0

    def test_stat_a_outside_the_table_raises(self):
        words = list(words_over((1, 2)))
        for a in (-1, 4):
            with pytest.raises(ValueError, match=f"stat_a = {a} lies outside 0..3"):
                joint_distribution(words, lambda w: a, maj)

    def test_words_of_another_length_raise(self):
        with pytest.raises(ValueError, match="length 3 among words of length 2"):
            joint_distribution([(1, 2), (1, 2, 3)], des, maj)

    def test_edge_collections(self):
        assert joint_distribution([], des, maj) == ()
        assert joint_distribution(words_over(()), des, maj) == (LaurentPoly.one(),)
        words = [list(w) for w in permutations_of(3)]
        assert joint_distribution(words, des, maj) == joint_distribution(permutations_of(3), des, maj)
