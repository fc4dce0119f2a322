import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qrook import ffmat, permstat, placements, verify
from qrook.boards import (
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    board_from_heights,
    g_spec,
    staircase_board,
    step_decomposition,
    triangular_board,
)
from qrook.cli import main
from qrook.placements import hit_polys
from qrook.qpoly import BivariatePoly, IdentityViolation, LaurentPoly, q_binomial, q_bracket
from qrook.verify import (
    CheckResult,
    add_recurrence_check,
    corollary3_check,
    darga_target,
    euler_ladder_check,
    g_identity_check,
    hit_zsu_check,
    inverse_product_series,
    lemma3_delta_check,
    n_k_target,
    phi_series,
    reciprocity_check,
    recurrence25_check,
    run_suites,
    step_formula,
    step_zsu_check,
)


def x_power(k):
    return BivariatePoly({(0, k): 1})


class TestTruncatedSeries:
    """Series in x held as BivariatePoly, with z for x."""

    def test_product_truncates(self):
        # (1 + x + x^2 + x^3)(1 + x) up to x^3
        a = BivariatePoly({(0, k): 1 for k in range(4)})
        b = BivariatePoly({(0, 0): 1, (0, 1): 1})
        prod = (a * b).truncated(3)
        assert prod.coefficient(3) == LaurentPoly.monomial(2)
        assert prod.coefficient(4).is_zero

    def test_geometric_inverse(self):
        # 1/(1-x) has all-ones coefficients
        s = inverse_product_series(0, 5)
        assert all(s.coefficient(k) == LaurentPoly.one() for k in range(6))
        # 1/((1-x)(1-xq)) has coefficient [k+1]
        s = inverse_product_series(1, 5)
        assert all(s.coefficient(k) == q_bracket(k + 1) for k in range(6))

    def test_delta_drops_one_order(self):
        s = inverse_product_series(0, 4)
        d = s.delta()
        assert all(d.coefficient(k) == q_bracket(k + 1) for k in range(4))
        assert d.coefficient(4).is_zero

    def test_shift(self):
        s = (x_power(1) * BivariatePoly.one()).truncated(2)
        assert s.coefficient(0).is_zero and s.coefficient(1) == LaurentPoly.one()
        assert (x_power(2) * inverse_product_series(0, 2)).truncated(2) == x_power(2)


class TestPhiSeries:
    def test_both_routes_agree_small(self):
        for heights in [(1, 2), (0, 1, 2), (0, 0, 0), (2, 2, 3)]:
            phi_series(board_from_heights(heights), order=6)

    def test_trivial_board_coefficients(self):
        n = 3
        series = phi_series(board_from_heights((0,) * n), order=5)
        for k in range(6):
            expected = LaurentPoly.one()
            for i in range(1, n + 1):
                expected = expected * q_bracket(k - i + 1)
            assert series.coefficient(k) == expected

    def test_mismatch_reports_first_coefficient(self, monkeypatch):
        board = staircase_board(2)
        real = verify._bracket_product
        # a wrong bracket product from x^2 on
        monkeypatch.setattr(
            verify, "_bracket_product", lambda heights, k: real(heights, k).shifted(int(k >= 2))
        )
        with pytest.raises(IdentityViolation, match=r"series mismatch for heights:1,2 at x\^2: "):
            phi_series(board, order=4)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_delta_identity(self, n):
        assert lemma3_delta_check(n)


class TestRecurrences:
    def test_add_examples(self):
        assert add_recurrence_check(staircase_board(2))
        assert add_recurrence_check(board_from_heights((0, 0)))

    def test_add_matches_hand_values(self):
        # prepending an empty column to the staircase of side 2 gives the
        # three-square board with hit polynomials q^3, 2q+2q^2, 1, 0
        t = hit_polys(board_from_heights((0, 1, 2)), "mat")
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

    def test_corollary3(self):
        for v in [(1, 1), (3,), (2, 1), (1, 2, 1), (2, 2)]:
            assert corollary3_check(v)


class TestStepFormulas:
    def test_staircase2(self):
        spec = StepSpec(((1, 1), (1, 1)))
        for which in ("eq24", "eq26"):
            # value at index k is the hit polynomial with k hits
            assert step_formula(spec, which)[2] == LaurentPoly.one()
            assert step_formula(spec, which)[1] == LaurentPoly({1: 1})
            assert step_formula(spec, which)[0].is_zero

    def test_single_block(self):
        # one block of width n: the composition sum has a single term per k
        spec = StepSpec(((2, 3),))
        board = spec.expand()
        t = hit_polys(board, "mat")
        for k in range(4):
            assert step_formula(spec, "eq24")[k] == t[k]
            assert step_formula(spec, "eq26")[k] == t[k]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_agreement_with_enumeration(self, n):
        for spec in all_step_specs(n, max_rise=3, admissible_only=True):
            t = hit_polys(spec.expand(), "mat")
            for k in range(n + 1):
                assert step_formula(spec, "eq24")[k] == t[k]
                assert step_formula(spec, "eq26")[k] == t[k]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_truncation_recurrence(self, n):
        for spec in all_step_specs(n, max_rise=3, admissible_only=True):
            assert recurrence25_check(spec)

    def test_inadmissible_board_values(self):
        # single column of height 3 in a 1x1 grid: hit values have signs
        spec = StepSpec(((3, 1),))
        assert step_formula(spec, "eq24")[1] == LaurentPoly({0: 1, 1: 1, 2: 1})
        assert step_formula(spec, "eq24")[0] == LaurentPoly({1: -1, 2: -1})
        assert step_formula(spec, "eq26")[0] == step_formula(spec, "eq24")[0]
        assert recurrence25_check(spec)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_formulas_agree_on_inadmissible_boards(self, n):
        inadmissible = [s for s in all_step_specs(n, max_rise=3) if not s.admissible]
        assert inadmissible
        for spec in inadmissible:
            assert step_formula(spec, "eq24") == step_formula(spec, "eq26")

    @pytest.mark.parametrize("n", range(7, 10))
    def test_formulas_match_defining_beyond_enumeration(self, n):
        # a seeded sample of admissible specs with rises <= 3
        rng = random.Random(n)
        for _ in range(10):
            while True:
                cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
                widths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                rises = [rng.randrange(4) for _ in widths]
                if sum(rises) <= n:
                    break
            spec = StepSpec(tuple(zip(rises, widths)))
            t = hit_polys(spec.expand(), "defining")
            assert step_formula(spec, "eq24") == step_formula(spec, "eq26") == t

    def test_empty_spec(self):
        for which in ("eq24", "eq26"):
            assert step_formula(StepSpec(()), which) == (LaurentPoly.one(),)

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            step_formula(StepSpec(((0, 1),)), "eq99")


class TestUnimodality:
    def test_darga_targets(self):
        b = staircase_board(2)
        assert [n_k_target(b, k) for k in range(3)] == [4, 2, 0]
        triv = board_from_heights((0, 0, 0))
        assert n_k_target(triv, 0) == 3  # darga of [3]!

    @pytest.mark.parametrize("n", range(1, 5))
    def test_admissible_boards(self, n):
        for b in all_ferrers_boards(n):
            assert hit_zsu_check(b)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_step_boards_incl_inadmissible(self, n):
        for spec in all_step_specs(n, max_rise=3):
            assert step_zsu_check(spec)

    def test_divided_darga_uses_block_structure(self):
        # the trivial board as one block: divided hit polynomial is 1 with
        # darga 0; as singleton blocks the full factorial with darga C(n,2)
        whole = StepSpec(((0, 3),))
        assert darga_target(whole, 0) == 0
        singles = StepSpec(((0, 1), (0, 1), (0, 1)))
        assert darga_target(singles, 0) == 3
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
        board = board_from_heights((1, 1, 3))
        spec = step_decomposition(board)
        t = hit_polys(board, "mat")
        for k in range(4):
            assert step_formula(spec, "eq26")[k] == t[k]


class TestFailuresStayInTheSuite:
    """A violated identity inside a check is a FAIL line with detail, and
    the suite goes on to its remaining checks."""

    def verify_lines(self, suite, max_n):
        result = CliRunner().invoke(main, ["verify", "--suite", suite, "--max-n", str(max_n)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        return result.exit_code, result.output.splitlines()

    @pytest.mark.parametrize(
        "suite,check", [("steps", "step-formulas-agree"), ("unimodal", "step-symmetry-zsu")]
    )
    def test_wrong_q_binomial(self, monkeypatch, suite, check):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "q_binomial", lambda m, k: q_binomial(m, k).shifted(1))
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

    def test_wrong_hit_count(self, monkeypatch):
        # the q=1 hit numbers come from the rook numbers, not from _hits,
        # so a wrong hit count in the permutation walk cannot hide there
        caches = (placements.hit_polys, placements.classical_hit_distribution)
        for cached in caches:
            cached.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(placements, "_hits", lambda sigma, heights: 0)
                code, lines = self.verify_lines("hit", 2)
        finally:
            for cached in caches:
                cached.cache_clear()
        assert code == 1
        assert any(line.startswith("FAIL hit-classical-at-1 ") for line in lines)
        assert len(lines) == len(self.verify_lines("hit", 2)[1])

    def test_wrong_word_statistic(self, monkeypatch):
        real = permstat.mat_word
        permstat._spec_context.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(permstat, "mat_word", lambda w, spec: real(w, spec) + 1)
                code, lines = self.verify_lines("mahonian", 2)
        finally:
            permstat._spec_context.cache_clear()
        assert code == 1
        assert "FAIL mat-multiset-mahonian steps:0x1 first differing exponent 0: q vs 1" in lines
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert fails and all(line.startswith("FAIL mat-multiset-mahonian ") for line in fails)
        assert len(lines) == len(self.verify_lines("mahonian", 2)[1])


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
