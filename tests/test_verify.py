import ast
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qrook import ffmat, permstat, placements, verify
from qrook.boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    g_spec,
    parse_board_spec,
    staircase_board,
    step_decomposition,
    triangular_board,
)
from qrook.placements import darga_target, hit_polys
from qrook.qpoly import IdentityViolation, LaurentPoly, q_binomial, q_bracket, q_factorial
from qrook.qpoly import _PackedSeries
from qrook.verify import (
    CheckResult,
    add_recurrence_check,
    corollary3_check,
    euler_ladder_check,
    g_identity_check,
    hit_zsu_check,
    lemma3_delta_check,
    n_k_target,
    phi_series,
    reciprocity_check,
    recurrence25_check,
    run_suites,
    step_zsu_check,
)

from cli_runner import invoke
from oracles import eq24_signed_terms, eq26_divided_by_vectors


def count_products(monkeypatch, run):
    """run() and the number of LaurentPoly products it formed."""
    real = LaurentPoly.__mul__
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(LaurentPoly, "__mul__", counting)
        patch.setattr(LaurentPoly, "__rmul__", counting)
        result = run()
    return result, calls


def seeded_admissible_specs(n, count=10):
    """A seeded sample of admissible specs of total width n, rises <= 3."""
    rng = random.Random(n)
    specs = []
    for _ in range(count):
        while True:
            cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
            widths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            rises = [rng.randrange(4) for _ in widths]
            if sum(rises) <= n:
                break
        specs.append(StepSpec(tuple(zip(rises, widths))))
    return specs


def step_table(spec, which):
    """A step formula's table on this presentation of the board, where
    ``hit_polys`` reads the maximal one: the divided table times the block
    factorials."""
    divided = {"eq24": placements.eq24_divided, "eq26": placements._eq26_divided}[which](spec)
    factorials = math.prod((q_factorial(d) for d in spec.widths), start=LaurentPoly.one())
    return tuple(factorials * t for t in divided)


def outcome(fn, spec):
    """The table fn returns, or the message of the IdentityViolation it raises."""
    try:
        return fn(spec)
    except IdentityViolation as exc:
        return str(exc)


class TestTruncatedSeries:
    """Series in x on the packed kernel, read back as their x^k coefficients."""

    def test_product_truncates(self):
        # (1 + 2x + 3x^2 + 4x^3)(1 - x) up to x^3: the -4x^4 term is dropped
        s = _PackedSeries(4)
        for k, c in enumerate((1, 2, 3, 4)):
            s.add(k, (), c)
        s.times_linear(0, 0, order=3)
        assert s.polys() == [LaurentPoly.one()] * 4

    def test_geometric_inverse(self):
        # 1/(1-x) has all-ones coefficients
        s = _PackedSeries(6)
        s.add(0, ())
        s.divide(0, 5)
        assert s.polys() == [LaurentPoly.one()] * 6
        # 1/((1-x)(1-xq)) has coefficient [k+1]
        s.divide(1, 5)
        assert s.polys() == [q_bracket(k + 1) for k in range(6)]

    def test_delta_drops_one_order(self):
        s = _PackedSeries(4)
        s.add(0, ())
        s.divide(0, 4)
        s.delta()
        assert s.polys() == [q_bracket(k + 1) for k in range(4)]

    def test_shift(self):
        # x^k over 1 - x, truncated at x^k, is x^k: the rows below stay zero
        for k in range(3):
            s = _PackedSeries(1)
            s.add(k, ())
            s.divide(0, k)
            assert s.polys() == [LaurentPoly.zero()] * k + [LaurentPoly.one()]


class TestPhiSeries:
    def test_both_routes_agree_small(self):
        for heights in [(1, 2), (0, 1, 2), (0, 0, 0), (2, 2, 3)]:
            phi_series(FerrersBoard(heights))

    def test_trivial_board_coefficients(self):
        n = 3
        series = phi_series(FerrersBoard((0,) * n))
        for k in range(n + 4):
            expected = LaurentPoly.one()
            for i in range(1, n + 1):
                expected = expected * q_bracket(k - i + 1)
            assert series[k] == expected

    def test_mismatch_reports_first_coefficient(self, monkeypatch):
        board = staircase_board(2)
        real = verify._bracket_product
        # a wrong bracket product from x^2 on
        monkeypatch.setattr(
            verify, "_bracket_product", lambda heights, k: real(heights, k).shifted(int(k >= 2))
        )
        with pytest.raises(IdentityViolation, match=r"series mismatch for heights:1,2 at x\^2: "):
            phi_series(board)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_delta_identity(self, n):
        assert lemma3_delta_check(n)


class TestRecurrences:
    def test_add_examples(self):
        assert add_recurrence_check(staircase_board(2))
        assert add_recurrence_check(FerrersBoard((0, 0)))

    def test_add_matches_hand_values(self):
        # prepending an empty column to the staircase of side 2 gives the
        # three-square board with hit polynomials q^3, 2q+2q^2, 1, 0
        t = hit_polys(FerrersBoard((0, 1, 2)), "mat")
        assert list(t) == [
            LaurentPoly({3: 1}),
            LaurentPoly({1: 2, 2: 2}),
            LaurentPoly.one(),
            LaurentPoly.zero(),
        ]

    @pytest.mark.parametrize("n", range(1, 4))
    def test_add_and_reciprocity_all_boards(self, n):
        for b in all_ferrers_boards(n):
            assert add_recurrence_check(b)
            assert reciprocity_check(b)

    def test_reciprocity_hand_value(self):
        # hit polynomials of the side-2 triangular board are (q, 1); of its
        # complement (the staircase) they are (0, q, 1)
        tri = triangular_board(2)
        t = hit_polys(tri, "mat")
        c = hit_polys(staircase_board(2), "mat")
        shift = 1  # C(2,2) = 1
        assert t[0].subs_q_inverse().shifted(shift) == c[2]
        assert t[1].subs_q_inverse().shifted(shift) == c[1]


class TestEulerLadder:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_ladder(self, n):
        assert euler_ladder_check(n)

    def test_g_identity(self):
        for v in [(1, 1), (2,), (2, 1), (1, 2), (1, 1, 1), (2, 2)]:
            assert g_identity_check(v)

    @pytest.mark.parametrize("v", [(1.5, 1), (1, 2.5)])
    def test_g_identity_rejects_non_integer_parts(self, v):
        # int() would truncate the vector and check (1, 1) or (1, 2) instead
        with pytest.raises(ValueError, match="not an integer"):
            g_identity_check(v)

    def test_corollary3(self):
        for v in [(1, 1), (3,), (2, 1), (1, 2, 1), (2, 2)]:
            assert corollary3_check(v)


class TestStepFormulas:
    def test_staircase2(self):
        spec = StepSpec(((1, 1), (1, 1)))
        for which in ("eq24", "eq26"):
            # value at index k is the hit polynomial with k hits
            assert step_table(spec, which)[2] == LaurentPoly.one()
            assert step_table(spec, which)[1] == LaurentPoly({1: 1})
            assert not step_table(spec, which)[0]

    def test_single_block(self):
        # one block of width n: the composition sum has a single term per k
        spec = StepSpec(((2, 3),))
        board = spec.expand()
        t = hit_polys(board, "mat")
        for k in range(4):
            assert step_table(spec, "eq24")[k] == t[k]
            assert step_table(spec, "eq26")[k] == t[k]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_agreement_with_enumeration(self, n):
        for spec in all_step_specs(n, admissible_only=True):
            t = hit_polys(spec.expand(), "mat")
            for k in range(n + 1):
                assert step_table(spec, "eq24")[k] == t[k]
                assert step_table(spec, "eq26")[k] == t[k]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_truncation_recurrence(self, n):
        for spec in all_step_specs(n, admissible_only=True):
            assert recurrence25_check(spec)

    def test_inadmissible_board_values(self):
        # single column of height 3 in a 1x1 grid: hit values have signs
        spec = StepSpec(((3, 1),))
        assert step_table(spec, "eq24")[1] == LaurentPoly({0: 1, 1: 1, 2: 1})
        assert step_table(spec, "eq24")[0] == LaurentPoly({1: -1, 2: -1})
        assert step_table(spec, "eq26")[0] == step_table(spec, "eq24")[0]
        assert recurrence25_check(spec)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_formulas_agree_on_inadmissible_boards(self, n):
        inadmissible = [s for s in all_step_specs(n) if not s.admissible]
        assert inadmissible
        for spec in inadmissible:
            assert step_table(spec, "eq24") == step_table(spec, "eq26")

    @pytest.mark.parametrize("n", range(7, 10))
    def test_formulas_match_defining_beyond_enumeration(self, n):
        for spec in seeded_admissible_specs(n):
            t = hit_polys(spec.expand(), "defining")
            assert step_table(spec, "eq24") == step_table(spec, "eq26") == t

    def test_empty_spec(self):
        for which in ("eq24", "eq26"):
            assert step_table(StepSpec(()), which) == (LaurentPoly.one(),)

    def test_truncation_recurrence_on_the_empty_board(self):
        board = parse_board_spec("steps:")
        spec = step_decomposition(board)
        assert board.n == 0 and spec == StepSpec(())
        assert recurrence25_check(spec)

    @pytest.mark.parametrize("which", ["eq24", "eq26"])
    def test_presentation_does_not_change_the_table(self, which):
        # a step formula gives the same table on every presentation of a
        # board as hit_polys, which reads its maximal step decomposition
        for n in range(1, 6):
            for spec in all_step_specs(n):
                assert step_table(spec, which) == hit_polys(spec.expand(), which), spec

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            hit_polys(StepSpec(((0, 1),)).expand(), "eq99")

    @pytest.mark.parametrize(
        "corruption,max_n,message",
        [
            (None, 5, None),
            ("zero-brackets-are-one", 4, "a negative numerator left"),
            ("negated-k1", 4, "is negative under the overlap or dominance condition"),
            ("refuses-2-1", 4, "[2, 1] refused"),
        ],
        ids=["exact", "zero-brackets-are-one", "negated-k1", "refuses-2-1"],
    )
    def test_eq26_walk_matches_vector_oracle(self, monkeypatch, corruption, max_n, message):
        # the fold over the blocks against the per-vector sum, on every spec
        # with rises <= 3, inadmissible ones included: the same table, or,
        # when q_binomial is corrupted, an IdentityViolation wherever the
        # oracle raises one.  The fold checks each factor where the oracle
        # checks each term, so it may raise where the oracle does not; its
        # guards name the block, the prefix's hits r and e, not the vector e
        def binomial(m, k):
            if corruption == "zero-brackets-are-one" and 0 <= m < k:
                return LaurentPoly.one()
            if corruption == "negated-k1" and k == 1:
                return -q_binomial(m, k)
            if corruption == "refuses-2-1" and (m, k) == (2, 1):
                raise IdentityViolation("[2, 1] refused")
            return q_binomial(m, k)

        monkeypatch.setattr(placements, "q_binomial", binomial)
        violations = []
        guarded = (
            r" block=\d+ r=\d+ e=\d+: (a negative numerator left .*"
            r"|factor .* is negative under the overlap or dominance condition)"
        )
        for n in range(max_n + 1):
            for spec in all_step_specs(n):
                folded = outcome(placements._eq26_divided, spec)
                oracle = outcome(lambda s: eq26_divided_by_vectors(s, binomial), spec)
                if isinstance(folded, str):
                    violations.append(folded)
                    if folded != oracle:
                        assert re.fullmatch(re.escape(str(spec)) + guarded, folded), folded
                else:
                    assert folded == oracle, spec
        if message is None:
            assert not violations
        else:
            assert any(message in v for v in violations)

    # every spec with n <= 5 and rises <= 3, inadmissible ones included,
    # and the seeded admissible samples with n = 7..9
    ORACLE_SPECS = [spec for n in range(1, 6) for spec in all_step_specs(n)] + [
        spec for n in range(7, 10) for spec in seeded_admissible_specs(n)
    ]

    def test_eq26_matches_vector_oracle_on_the_seeded_specs(self):
        # the n <= 5 specs are in test_eq26_walk_matches_vector_oracle[exact]
        for spec in self.ORACLE_SPECS[3124:]:
            assert placements._eq26_divided(spec) == eq26_divided_by_vectors(spec), spec

    def test_eq24_matches_signed_term_oracle(self):
        assert len(self.ORACLE_SPECS) == 3124 + 30
        for spec in self.ORACLE_SPECS:
            assert placements.eq24_divided(spec) == eq24_signed_terms(spec), spec

    def assert_eq24_and_oracle_fail_alike(self, monkeypatch, binomial):
        """Under a wrong q_binomial, each spec's guard fails, with the
        message of the oracle's first failing term."""
        monkeypatch.setattr(placements, "q_binomial", binomial)
        for spec in self.ORACLE_SPECS:
            got = outcome(placements.eq24_divided, spec)
            assert isinstance(got, str) and "is not symmetric with darga" in got, spec
            assert got == outcome(lambda s: eq24_signed_terms(s, binomial), spec), spec

    def test_eq24_and_oracle_raise_alike_under_a_wrong_q_binomial(self, monkeypatch):
        # every bracket times q: each bracket stays symmetric, but the
        # dargas add up to the wrong target
        self.assert_eq24_and_oracle_fail_alike(monkeypatch, lambda m, k: q_binomial(m, k).shifted(1))

    def test_eq24_and_oracle_raise_alike_under_asymmetric_brackets(self, monkeypatch):
        # every bracket times 1 + 2q: no bracket is symmetric, so each P_s
        # is unpacked and decided on its own digits
        self.assert_eq24_and_oracle_fail_alike(monkeypatch, lambda m, k: q_binomial(m, k) * LaurentPoly({0: 1, 1: 2}))

    @pytest.mark.parametrize(
        "spec,blocks,admissible,past_64_bits,negative",
        [
            pytest.param(step_decomposition(staircase_board(12)), 12, True, False, False, id="stair:12-12-True"),
            # not the maximal decomposition of its board, which has 3 blocks
            pytest.param(
                StepSpec(((3, 1), (0, 2), (2, 2), (3, 1))), 4, False, False, False, id="steps:3x1,0x2,2x2,3x1-4-False"
            ),
            # P_24 = [25]^25 has P_24(1) = 25^25 > 2^64: entries and packed digits past a machine word
            pytest.param(step_decomposition(staircase_board(25)), 25, True, True, False, id="stair:25-25-True"),
            # inadmissible, with negative entries, and rows long enough to unpack through their bytes
            pytest.param(StepSpec(((24, 12),)), 1, False, False, True, id="steps:24x12-1-False"),
        ],
    )
    def test_eq24_forms_no_term_products(self, monkeypatch, spec, blocks, admissible, past_64_bits, negative):
        # the P_s and the passes run on packed integers: neither a product
        # of brackets nor a signed term (-1)^j q^C(j,2) [n+1, j] P_s is formed
        assert (spec.t, spec.admissible) == (blocks, admissible)
        placements.eq24_divided(spec)  # fill the q-binomial cache
        table, calls = count_products(monkeypatch, lambda: placements.eq24_divided(spec))
        assert table == eq24_signed_terms(spec)
        assert calls == 0
        coefficients = [c for t in table for _, c in t.items()]
        assert (max(map(abs, coefficients)) > 2**64) == past_64_bits
        assert (min(coefficients) < 0) == negative

    def test_eq26_folds_the_blocks(self, monkeypatch):
        # at most two products per prefix hit count r and e at each block,
        # sum_i (D_(i-1) + 1)(d_i + 1) pairs: the 2^20 vectors e of stair:20
        # are never walked
        spec = step_decomposition(staircase_board(20))
        bound = 2 * sum((D + 1) * (d + 1) for D, d in zip((0,) + spec.col_offsets, spec.widths))
        assert bound == 840
        placements._eq26_divided(spec)  # fill the q-binomial cache
        table, calls = count_products(monkeypatch, lambda: placements._eq26_divided(spec))
        assert table == placements.eq24_divided(spec)
        assert 0 < calls <= bound

    @pytest.mark.parametrize("board", [staircase_board(12), FerrersBoard((0, 2, 2, 5, 5, 6))], ids=str)
    @pytest.mark.parametrize(
        "route", ["defining", "factorization", "rank-product-identity", "series-route-a", "delta-identity"]
    )
    def test_x_series_passes_form_no_products(self, monkeypatch, route, board):
        # the passes run on packed rows, like eq24's; the polynomials they
        # read (rook polynomials, q-factorials, the rank-count polynomials
        # and route B's bracket products) are made before the count
        runs = {
            "defining": lambda: placements.hit_polys.__wrapped__(board, "defining"),
            "factorization": lambda: placements.factorization_check(board),
            "rank-product-identity": lambda: ffmat.corollary2_check(board),
            "series-route-a": lambda: phi_series(board),
            "delta-identity": lambda: lemma3_delta_check(board.n),
        }
        expected = runs[route]()
        ranks = [ffmat.p_k_formula(board, k) for k in range(board.n + 1)]
        brackets = [verify._bracket_product(board.heights, k) for k in range(board.n + 4)]
        monkeypatch.setattr(ffmat, "p_k_formula", lambda b, k: ranks[k])
        monkeypatch.setattr(verify, "_bracket_product", lambda heights, k: brackets[k])
        result, calls = count_products(monkeypatch, runs[route])
        assert result == expected and calls == 0
        if route == "defining":
            assert result == hit_polys(board, "eq24")
        elif route != "series-route-a":
            assert result is True


class TestUnimodality:
    def test_darga_targets(self):
        b = staircase_board(2)
        assert [n_k_target(b, k) for k in range(3)] == [4, 2, 0]
        triv = FerrersBoard((0, 0, 0))
        assert n_k_target(triv, 0) == 3  # darga of [3]!

    @pytest.mark.parametrize("n", range(1, 5))
    def test_admissible_boards(self, n):
        for b in all_ferrers_boards(n):
            assert hit_zsu_check(b)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_step_boards_incl_inadmissible(self, n):
        for spec in all_step_specs(n):
            assert step_zsu_check(spec)

    def test_divided_darga_uses_block_structure(self):
        # the trivial board as one block: divided hit polynomial is 1 with
        # darga 0; as singleton blocks the full factorial with darga C(n,2)
        whole = StepSpec(((0, 3),))
        assert darga_target(whole) == 0
        singles = StepSpec(((0, 1), (0, 1), (0, 1)))
        assert darga_target(singles) == 3
        assert step_zsu_check(whole)
        assert step_zsu_check(singles)

    def test_block_spec_of_g_board_meets_refinement(self):
        spec = g_spec((2, 1, 2))
        assert spec.condition_dominance()
        assert step_zsu_check(spec)


class TestSuites:
    def test_check_result_lines(self):
        assert CheckResult("c", "i", True).line() == "PASS c i"
        assert CheckResult("c", "i", False, "why").line() == "FAIL c i why"

    def test_all_suites_pass_small(self):
        results = list(
            run_suites(
                [
                    "rook",
                    "hit",
                    "mahonian",
                    "euler",
                    "reciprocity",
                    "ffmat",
                    "unimodal",
                    "steps",
                ],
                2,
            )
        )
        assert results and all(r.ok for r in results)

    def test_step_decomposition_feeds_formulas(self):
        # hit polynomials computed from the maximal-run spec of a plain board
        board = FerrersBoard((1, 1, 3))
        spec = step_decomposition(board)
        t = hit_polys(board, "mat")
        for k in range(4):
            assert step_table(spec, "eq26")[k] == hit_polys(board, "eq26")[k] == t[k]


class TestFailuresStayInTheSuite:
    """A violated identity inside a check is a FAIL line with detail, and
    the suite goes on to its remaining checks."""

    def verify_lines(self, suite, max_n):
        # invoke lets any exception but SystemExit out, so none escaped the suite
        result = invoke(["verify", "--suite", suite, "--max-n", str(max_n)])
        return result.exit_code, result.output.splitlines()

    @pytest.mark.parametrize(
        "suite,check", [("steps", "step-formulas-agree"), ("unimodal", "step-symmetry-zsu")]
    )
    def test_wrong_q_binomial(self, monkeypatch, suite, check):
        with monkeypatch.context() as patch:
            patch.setattr(placements, "q_binomial", lambda m, k: q_binomial(m, k).shifted(1))
            code, lines = self.verify_lines(suite, 2)
        assert code == 1
        fails = [line for line in lines if line.startswith(f"FAIL {check} ")]
        assert fails and all("is not symmetric with darga" in line for line in fails)
        # every check still ran
        assert len(lines) == len(self.verify_lines(suite, 2)[1])

    def test_wrong_rank(self, monkeypatch):
        ffmat.rank_distribution.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ffmat, "rank_ff", lambda matrix: 0)
                code, lines = self.verify_lines("ffmat", 1)
        finally:
            ffmat.rank_distribution.cache_clear()
        assert code == 1
        fails = [line for line in lines if line.startswith("FAIL elimination-fibers ")]
        assert len(fails) == 2 and all("pivots but rank 0" in line for line in fails)
        assert len(lines) == len(self.verify_lines("ffmat", 1)[1])

    def test_wrong_walk_rank(self, monkeypatch):
        # the rank counts read the ranks the matrix walk carries, not rank_ff:
        # a span that never grows makes later columns raise the rank too often
        ffmat.rank_distribution.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ffmat, "_span_with", lambda span, column, p: span)
                code, lines = self.verify_lines("ffmat", 2)
                cli = invoke(["matrices", "--board", "heights:0,1,2", "--prime", "2"])
        finally:
            ffmat.rank_distribution.cache_clear()
        assert code == 1
        assert any(line.startswith("FAIL rank-bridge ") for line in lines)
        assert len(lines) == len(self.verify_lines("ffmat", 2)[1])
        assert cli.exit_code == 1
        assert cli.output.splitlines()[-1] == "THEOREM1 FAIL"

    def test_wrong_hit_count(self, monkeypatch):
        # the q=1 hit numbers come from the rook numbers, not from the
        # mat/xi position scan, so a wrong hit count in the scan cannot hide
        # there: here the scan files every placement under zero hits
        real = placements._unpack_hit_table

        def unpack(packed, n, stride, width, mat_base):
            table = real(packed, n, stride, width, mat_base)
            return (sum(table, LaurentPoly.zero()),) + (LaurentPoly.zero(),) * n

        caches = (placements.hit_polys, placements.classical_hit_distribution)
        for cached in caches:
            cached.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(placements, "_unpack_hit_table", unpack)
                code, lines = self.verify_lines("hit", 2)
        finally:
            for cached in caches:
                cached.cache_clear()
        assert code == 1
        assert any(line.startswith("FAIL hit-classical-at-1 ") for line in lines)
        assert len(lines) == len(self.verify_lines("hit", 2)[1])

    def wrong_word_statistic(self, monkeypatch, suite, max_n=2):
        # every mat value of the position scan comes out one too high; the
        # mat hit polynomials share the scan, so their cache is emptied too
        real = placements._unpack_hit_table

        def unpack(packed, n, stride, width, mat_base):
            return real(packed, n, stride, width, None if mat_base is None else mat_base + 1)

        placements.hit_polys.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(placements, "_unpack_hit_table", unpack)
                code, lines = self.verify_lines(suite, max_n)
        finally:
            placements.hit_polys.cache_clear()
        assert code == 1
        assert len(lines) == len(self.verify_lines(suite, max_n)[1])
        return [line for line in lines if line.startswith("FAIL ")]

    def test_wrong_word_statistic(self, monkeypatch):
        fails = self.wrong_word_statistic(monkeypatch, "mahonian")
        assert "FAIL mat-multiset-mahonian steps:0x1 first differing exponent 0: q vs 1" in fails
        assert all(line.startswith("FAIL mat-multiset-mahonian ") for line in fails)

    def test_wrong_block_statistic(self, monkeypatch):
        # stat5 and its reflected form read the mat tables of the block board;
        # the euler ladder reads the mat hit polynomials, which are those
        # tables times the block factorials
        fails = self.wrong_word_statistic(monkeypatch, "euler")
        assert "FAIL stat5-euler-mahonian v=1 k=0 got=q ref=1" in fails
        assert all(
            line.startswith(
                (
                    "FAIL stat5-euler-mahonian ",
                    "FAIL reflected-block-euler-mahonian ",
                    "FAIL euler-ladder ",
                )
            )
            for line in fails
        )

    def test_block_board_maj_is_independent_of_stat5(self, monkeypatch):
        # both compare with the (des, maj) table of the words, but the
        # block-board maj check reads the defining hit polynomials: a wrong
        # word table fails all 7 stat5 lines and none of the 7 block-board-maj
        # lines, which the suite still prints
        checks = [line.split()[1] for line in self.wrong_word_statistic(monkeypatch, "euler", 3)]
        assert checks.count("stat5-euler-mahonian") == 7
        assert "block-board-maj" not in checks

    def test_wrong_maj(self, monkeypatch):
        # maj one too high moves the (des, maj) reference table: every Euler
        # comparison fails with the first differing entry of both tables,
        # and the ladder and block-board checks, which compare it with hit
        # polynomials, fail too
        real = permstat.maj
        with monkeypatch.context() as patch:
            patch.setattr(permstat, "maj", lambda w: real(w) + 1)
            code, lines = self.verify_lines("euler", 2)
        assert code == 1
        assert len(lines) == len(self.verify_lines("euler", 2)[1])
        assert "FAIL exc-den-euler-mahonian n=1 k=0 got=1 ref=q" in lines
        assert "FAIL descent-family-euler-mahonian n=2 family=xi variant=8 k=0 got=1 ref=q" in lines
        assert "FAIL closed-form-exc-statx v=1,1 k=0 got=1 ref=q" in lines
        compared = (
            "exc-den-euler-mahonian",
            "closed-form-exc-stat",
            "stat7-permutations",
            "descent-family-euler-mahonian",
            "stat5-euler-mahonian",
            "stat6-euler-mahonian",
            "reflected-block-euler-mahonian",
            "closed-form-exc-statx",
        )
        checks = [line.split()[:2] for line in lines[:-1]]
        assert {check for status, check in checks if status == "FAIL"} == {
            *compared,
            "euler-ladder",
            "block-board-maj",
        }
        for line in lines[:-1]:
            if line.split()[1] in compared:
                assert re.fullmatch(r"FAIL .+ k=\d+ got=.+ ref=.+", line), line

    def test_hit_methods_detail(self, monkeypatch):
        # xi's one-hit entry is off by a factor q: the FAIL line names the
        # first differing hit count and each method's polynomial there
        real = verify.hit_polys

        def corrupted(board, method):
            table = real(board, method)
            return table[:1] + (table[1].shifted(1),) + table[2:] if method == "xi" else table

        with monkeypatch.context() as patch:
            patch.setattr(verify, "hit_polys", corrupted)
            lines = [result.line() for result in run_suites(["hit"], 2)]
        assert "FAIL hit-methods-agree heights:0,2 k=1 mat=1 + q xi=q + q^2 defining=1 + q" in lines
        assert len([line for line in lines if line.startswith("FAIL ")]) == 5
        assert len(lines) == len(list(run_suites(["hit"], 2)))

    def test_wrong_truncated_table(self, monkeypatch):
        # one entry of the eq24 table of heights:1,1 is off by a factor q:
        # the recurrence fails wherever that board is the full or the
        # truncated board, in both of its presentations, steps:1x2 and
        # steps:1x1,0x1; the formula check reads the divided tables and the
        # mat hit polynomials, so it still passes
        real = verify.hit_polys
        target = FerrersBoard((1, 1))

        def corrupted(board, method="mat"):
            table = real(board, method)
            return table[:1] + (table[1].shifted(1),) + table[2:] if (board, method) == (target, "eq24") else table

        with monkeypatch.context() as patch:
            patch.setattr(verify, "hit_polys", corrupted)
            code, lines = self.verify_lines("steps", 3)
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL ")] == [
            "FAIL step-truncation-recurrence steps:1x2",
            "FAIL step-truncation-recurrence steps:1x1,0x1",
            "FAIL step-truncation-recurrence steps:1x2,0x1",
            "FAIL step-truncation-recurrence steps:1x2,1x1",
            "FAIL step-truncation-recurrence steps:1x2,2x1",
            "FAIL step-truncation-recurrence steps:1x1,0x1,0x1",
            "FAIL step-truncation-recurrence steps:1x1,0x1,1x1",
            "FAIL step-truncation-recurrence steps:1x1,0x1,2x1",
        ]
        assert len(lines) == len(self.verify_lines("steps", 3)[1])

    def test_violation_in_unguarded_check(self, monkeypatch):
        # the delta identity takes its left side through _PackedSeries.delta,
        # on rows up to x^(n+4); a violation raised there at n = 1 is a FAIL
        # line, not a traceback
        def delta_refusing(series):
            if len(series.rows) == 6:
                raise IdentityViolation("delta of 6 rows refused")
            return real(series)

        real = _PackedSeries.delta
        with monkeypatch.context() as patch:
            patch.setattr(_PackedSeries, "delta", delta_refusing)
            lines = [result.line() for result in run_suites(["reciprocity"], 2)]
        assert "FAIL delta-identity n=1 delta of 6 rows refused" in lines
        assert len(lines) == len(list(run_suites(["reciprocity"], 2)))

    def test_route_a_divides_by_the_wrong_factors(self, monkeypatch):
        # route A divides by (1 - xq^(i+1)) in place of (1 - xq^i): the series
        # check fails on every board, at an x^k where route B's bracket
        # products disagree, and every other check still passes
        real = _PackedSeries.divide
        wrong = lambda series, m, order: real(series, m + 1, order)
        fails = self.failing(monkeypatch, "reciprocity", 2, [(_PackedSeries, "divide", wrong)])
        boards = [board for n in (1, 2) for board in all_ferrers_boards(n)]
        series = [line for line in fails if line.startswith("FAIL series-two-ways ")]
        assert len(series) == len(boards)
        # Lemma 3 divides on the same kernel: its two sides then differ by a
        # factor q on the [n-k+1] term
        assert [line for line in fails if line not in series] == ["FAIL delta-identity n=1", "FAIL delta-identity n=2"]
        for line, board in zip(series, boards):
            prefix = f"FAIL series-two-ways {board} series mismatch for {board} at x^"
            assert line.startswith(prefix) and ": bracket product gives " in line, line

    def failing(self, monkeypatch, suite, max_n, patches):
        """The FAIL lines of a suite run with the given (target, name, value)
        patches, after checking that it still printed every line."""
        with monkeypatch.context() as patch:
            for target, name, value in patches:
                patch.setattr(target, name, value)
            code, lines = self.verify_lines(suite, max_n)
        assert code == 1
        assert len(lines) == len(self.verify_lines(suite, max_n)[1])
        return [line for line in lines if line.startswith("FAIL ")]

    def test_short_bracket_window(self, monkeypatch):
        # the rook recurrence's window-sum pass with the last term of each
        # window dropped: q_stirling still multiplies by [k] as a product,
        # so the staircase check fails at every n
        real = LaurentPoly.times_bracket
        short = lambda p, m: real(p, m - 1 if m > 0 else m)
        caches = (placements.rook_poly, placements.hit_polys, placements.classical_hit_distribution)
        for cached in caches:
            cached.cache_clear()
        try:
            fails = self.failing(monkeypatch, "rook", 3, [(LaurentPoly, "times_bracket", short)])
        finally:
            for cached in caches:
                cached.cache_clear()
        stirling = [line for line in fails if line.startswith("FAIL staircase-stirling ")]
        assert stirling == [f"FAIL staircase-stirling n={n}" for n in (1, 2, 3)]

    def test_wrong_fiber_size(self, monkeypatch):
        # inv one too high shrinks every expected fiber p-fold
        real = ffmat.inv_stat
        wrong_inv = lambda c, board: real(c, board) + 1
        fails = self.failing(monkeypatch, "ffmat", 1, [(ffmat, "inv_stat", wrong_inv)])
        assert fails == [f"FAIL elimination-fibers heights:0,1,2 p={p}" for p in (2, 3)]

    def test_reached_placements_sum_to_the_rook_polynomial(self, monkeypatch):
        # R_k one factor q too high: the placements the elimination reaches,
        # weighted by q^inv, no longer sum to it
        real = ffmat.rook_poly
        times_q = lambda board, k: real(board, k).shifted(1)
        fails = self.failing(monkeypatch, "ffmat", 1, [(ffmat, "rook_poly", times_q)])
        for p in (2, 3):
            assert f"FAIL elimination-fibers heights:0,1,2 p={p}" in fails

    def test_pivots_off_the_board(self, monkeypatch):
        # a board that misses the top square of each column loses every
        # pivot that sits there
        real = FerrersBoard.contains
        one_row_short = lambda self, r, c: real(self, r + 1, c)
        fails = self.failing(monkeypatch, "ffmat", 1, [(FerrersBoard, "contains", one_row_short)])
        assert len(fails) == 2
        for line, p in zip(fails, (2, 3)):
            expected = rf"FAIL elimination-fibers heights:0,1,2 p={p} pivots \[.+\] leave heights:0,1,2"
            assert re.fullmatch(expected, line)

    @staticmethod
    def bottom_entry_patch():
        """A patch that puts a 1 in the corner of each walked matrix's bottom
        row, which lies below every support when the first column is empty."""
        real = ffmat._walked
        with_bottom_entry = lambda p, entries: real(p, entries[:-1] + ((0,) * (len(entries) - 1) + (1,),))
        return ffmat, "_walked", with_bottom_entry

    def test_entry_outside_the_support(self, monkeypatch):
        # a matrix with a nonzero entry below every support gets past a
        # support test that passes everything, and the elimination check
        # reports it
        fails = self.failing(
            monkeypatch,
            "ffmat",
            1,
            [
                (ffmat.FfMatrix, "supported_on", lambda self, board: True),
                self.bottom_entry_patch(),
            ],
        )
        assert fails == [
            f"FAIL elimination-fibers heights:0,1,2 p={p} elimination left the support of heights:0,1,2"
            for p in (2, 3)
        ]

    def test_unsupported_matrix_is_a_failed_check(self, monkeypatch):
        # the support test refuses the same matrix with a ValueError, which
        # reads FAIL with its type, not a traceback
        fails = self.failing(monkeypatch, "ffmat", 1, [self.bottom_entry_patch()])
        assert fails == [
            f"FAIL elimination-fibers heights:0,1,2 p={p} ValueError: matrix is not supported on the board"
            for p in (2, 3)
        ]

    def test_budget_exceeded_in_a_check_is_a_failed_check(self, monkeypatch):
        # the fiber walk over heights:0,1,2 at p = 3 has 27 matrices, past a
        # budget of 10; the boards with n = 1 have at most 3
        fails = self.failing(monkeypatch, "ffmat", 1, [(ffmat, "DEFAULT_BUDGET", 10)])
        assert fails == [
            "FAIL elimination-fibers heights:0,1,2 p=3"
            " BudgetExceededError: p^Area = 3^3 = 27 exceeds the enumeration budget 10"
        ]

    def test_bare_assert_in_a_check_escapes(self, monkeypatch):
        # python -O strips a bare assert, so it is a bug in the check, not a
        # FAIL line that would read PASS under -O
        def asserting(board, p):
            raise AssertionError("pivot count must equal the rank")

        monkeypatch.setattr(ffmat, "theorem1_check", asserting)
        with pytest.raises(AssertionError, match="pivot count"):
            self.verify_lines("ffmat", 1)

    def test_wrong_step_darga(self, monkeypatch):
        # every nonzero divided entry one power of q too high
        real = verify.eq24_divided
        shifted = lambda spec: tuple(t.shifted(1) for t in real(spec))
        fails = self.failing(monkeypatch, "unimodal", 2, [(verify, "eq24_divided", shifted)])
        assert "FAIL step-symmetry-zsu steps:0x1" in fails
        assert {line.split()[1] for line in fails} == {"step-symmetry-zsu"}

    def test_vanishing_step_brackets(self, monkeypatch):
        # every bracket [m, k] with k >= 1 zeroed: a FAIL line that says
        # P_n vanished, not a ValueError from the empty product table
        binomial = lambda m, k: q_binomial(m, k) if k < 1 else LaurentPoly.zero()
        fails = self.failing(monkeypatch, "unimodal", 2, [(placements, "q_binomial", binomial)])
        steps = [line for line in fails if line.split()[1] == "step-symmetry-zsu"]
        assert steps == [
            f"FAIL step-symmetry-zsu {spec} {spec} s={spec.n}: P_n vanished"
            for n in (1, 2)
            for spec in all_step_specs(n)
        ]

    def test_negative_step_table(self, monkeypatch):
        # negated entries keep their symmetry and darga; only the specs whose
        # widths or column counts dominate must also be nonnegative
        real = verify.eq24_divided
        negated = lambda spec: tuple(-t for t in real(spec))
        fails = self.failing(monkeypatch, "unimodal", 2, [(verify, "eq24_divided", negated)])
        failed = {line.split()[2] for line in fails}
        refined = {
            str(spec)
            for n in (1, 2)
            for spec in all_step_specs(n)
            if spec.condition_overlap() or spec.condition_dominance()
        }
        assert failed == refined and {line.split()[1] for line in fails} == {"step-symmetry-zsu"}

    def empty_column_failures(self, monkeypatch, edit):
        """The boards whose add-empty-column check fails when every mat
        table the recurrence reads is edited."""
        real = verify.hit_polys

        def corrupted(board, method):
            return edit(real(board, method)) if method == "mat" else real(board, method)

        fails = self.failing(monkeypatch, "reciprocity", 2, [(verify, "hit_polys", corrupted)])
        return {line.split()[2] for line in fails if line.split()[1] == "add-empty-column"}

    def test_top_entry_after_an_empty_column(self, monkeypatch):
        # n + 1 hits cannot happen once a column is empty
        failed = self.empty_column_failures(monkeypatch, lambda t: t[:-1] + (t[-1] + 1,))
        assert failed == {str(board) for n in (1, 2) for board in all_ferrers_boards(n)}

    def test_wrong_empty_column_recurrence(self, monkeypatch):
        # T_0 one power of q too high: on an empty board T_0 alone enters the
        # recurrence, which then holds at any shift
        failed = self.empty_column_failures(monkeypatch, lambda t: (t[0].shifted(1),) + t[1:])
        assert "heights:1" in failed and "heights:0" not in failed

    def test_wrong_delta_series(self, monkeypatch):
        # the right side over (1-x)...(1-xq^(n+2)) where (1-x)...(1-xq^(n+1))
        # is meant: one extra division after its last factor, the only
        # division of the suite at m = order - 2 (route A stops at m = n with
        # order n+3, and Lemma 3's left side at m = n with order n+4)
        real = _PackedSeries.divide

        def one_factor_long(series, m, order):
            real(series, m, order)
            if m == order - 2:
                real(series, m + 1, order)

        fails = self.failing(monkeypatch, "reciprocity", 2, [(_PackedSeries, "divide", one_factor_long)])
        assert fails == ["FAIL delta-identity n=1", "FAIL delta-identity n=2"]


def run_optimized(*args):
    """Run python -O with the library on the path; return (exit code, stdout lines)."""
    src = str(Path(verify.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", *args], env=env, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout.splitlines()


def test_suites_pass_under_python_O():
    code, lines = run_optimized("-m", "qrook.cli", "verify", "--suite", "all", "--max-n", "3")
    assert code == 0
    assert lines[-1].startswith("TOTAL pass=") and lines[-1].endswith(" fail=0")


def test_checks_survive_python_O():
    # python -O strips assert statements; IdentityViolation still fires
    code, lines = run_optimized(
        "-c",
        "import sys; from qrook import ffmat; from qrook.cli import main\n"
        "if __debug__: sys.exit('not running under -O')\n"
        "ffmat.rank_ff = lambda m: 0\n"
        "main(['verify', '--suite', 'ffmat', '--max-n', '1'])",
    )
    assert code == 1
    fails = [line for line in lines if line.startswith("FAIL elimination-fibers ")]
    assert len(fails) == 2 and all("pivots but rank 0" in line for line in fails)


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a check must never be one
    src = Path(verify.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_library_import_is_used():
    src = Path(verify.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []
