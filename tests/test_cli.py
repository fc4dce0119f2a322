import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from qrook import ffmat, placements, verify
from qrook.boards import compositions
from qrook.cli import _PARSER, STAT_NAMES, main
from qrook.permstat import des, exc, joint_distribution, maj, stat6, stat7, words_over
from qrook.qpoly import LaurentPoly, q_factorial

from cli_runner import invoke
from oracles import stirling2_closed


def run(*args):
    return invoke(list(args))


@contextlib.contextmanager
def cleared(*caches):
    """Empty the given lru_caches before and after a patched run."""
    for cached in caches:
        cached.cache_clear()
    try:
        yield
    finally:
        for cached in caches:
            cached.cache_clear()


class TestRook:
    def test_json_single_k(self):
        result = run("rook", "--board", "stair:2", "--k", "1")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"min_exp": 1, "coeffs": [2, 1]}

    def test_json_round_trip(self):
        result = run("rook", "--board", "heights:0,1,2", "--k", "1")
        poly = LaurentPoly.from_dense_dict(json.loads(result.output))
        assert poly.to_dense_dict() == json.loads(result.output)

    def test_all_k_text(self):
        result = run("rook", "--board", "tri:2", "--format", "text")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["k=0: q", "k=1: 1", "k=2: 0"]

    def test_csv(self):
        result = run("rook", "--board", "stair:2", "--k", "1", "--format", "csv")
        assert result.output.splitlines() == ["1,2", "2,1"]

    def test_csv_zero_polynomial_is_one_row(self):
        # no cells: R_0 = 1 and R_1 = R_2 = 0
        result = run("rook", "--board", "heights:0,0", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["0,0,1", "1,0,0", "2,0,0"]

    def test_bad_board_is_usage_error(self):
        result = run("rook", "--board", "bogus:1")
        assert result.exit_code == 2
        result = run("rook", "--board", "heights:2,1")
        assert result.exit_code == 2

    def test_bad_k(self):
        assert run("rook", "--board", "tri:2", "--k", "9").exit_code == 2

    def test_large_staircase(self):
        # rook numbers of the staircase of side n are S(n+1, n+1-k)
        result = run("rook", "--board", "stair:40")
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert [row["k"] for row in rows] == [str(k) for k in range(41)]
        for k, row in enumerate(rows):
            assert sum(row["coeffs"]) == stirling2_closed(41, 41 - k)

    def test_thousand_columns_stay_within_the_recursion_limit(self):
        # one rook on a single row of 1,000 cells: R_1 = 1 + q + ... + q^999
        with cleared(placements.rook_poly):
            result = run("rook", "--board", "heights:" + ",".join(["1"] * 1000), "--k", "1")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"min_exp": 0, "coeffs": [1] * 1000}


class TestHit:
    def test_defining_agrees_with_eq24_beyond_enumeration(self):
        polys = {}
        for method in ("defining", "eq24"):
            result = run("hit", "--board", "stair:12", "--method", method)
            assert result.exit_code == 0
            polys[method] = [
                LaurentPoly.from_dense_dict(json.loads(line)) for line in result.output.splitlines()
            ]
        at_one = [poly.evaluate(1) for poly in polys["defining"]]
        assert at_one == [poly.evaluate(1) for poly in polys["eq24"]]
        assert sum(at_one) == math.factorial(12)
        assert polys["defining"] == polys["eq24"]

    @pytest.mark.parametrize("method", ["eq24", "all"])
    def test_identity_violation_is_a_failed_check(self, monkeypatch, method):
        # every bracket times q breaks the eq24 symmetry guard: exit 1 with
        # the violation on stderr, not a traceback and not a usage error
        real = placements.q_binomial
        monkeypatch.setattr(placements, "q_binomial", lambda m, k: real(m, k).shifted(1))
        with cleared(placements.hit_polys):
            result = run("hit", "--board", "stair:3", "--method", method)
        assert result.exit_code == 1
        assert result.output == (
            "error: steps:1x1,1x1,1x1 k=0 s=0: term q^7 + q^8 + q^9 + q^10"
            " is not symmetric with darga 9\n"
        )

    def test_all_methods_consistent_beyond_enumeration(self):
        # 12! permutations; the mat/xi position scan has 2^12 states
        result = run("hit", "--board", "stair:12", "--method", "all", "--format", "text")
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "CONSISTENT"

    def test_row_scan_at_its_state_budget(self):
        # stair:14 has fourteen blocks of width 1: 2^14 states, exactly the budget
        n = placements.HIT_DP_MAX_STATES.bit_length() - 1
        result = run("hit", "--board", f"stair:{n}", "--k", str(n), "--method", "xi")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": n, "method": "xi", "min_exp": 0, "coeffs": [1]}

    def test_row_scan_past_its_state_budget_is_usage_error(self):
        n = placements.HIT_DP_MAX_STATES.bit_length()
        for method in ("mat", "all"):
            result = run("hit", "--board", f"stair:{n}", "--method", method)
            assert result.exit_code == 2
            assert result.output == (
                f"error: mat tables over {n} blocks of total width {n} need {2**n} position-scan"
                f" states, past the budget of {placements.HIT_DP_MAX_STATES}\n"
            )

    def test_eq26_at_and_past_its_vector_budget(self):
        # stair:14 sums over 2^14 vectors e, exactly the budget
        n = placements.HIT_DP_MAX_STATES.bit_length() - 1
        result = run("hit", "--board", f"stair:{n}", "--k", str(n), "--method", "eq26")
        assert result.exit_code == 0
        assert json.loads(result.output) == {"k": n, "method": "eq26", "min_exp": 0, "coeffs": [1]}
        result = run("hit", "--board", f"stair:{n + 1}", "--method", "eq26")
        assert result.exit_code == 2
        assert result.output == (
            f"error: eq26 over {n + 1} blocks of total width {n + 1} sums over {2 ** (n + 1)} vectors e,"
            f" past the budget of {placements.HIT_DP_MAX_STATES}\n"
        )

    @pytest.mark.parametrize("method", ["mat", "xi", "eq26"])
    def test_far_past_the_budget_is_a_usage_error(self, method):
        # 2^15000 states or vectors e has more digits than str() of an int
        # prints, so the message shows the power; it names the blocks by
        # their count and total width, so it stays one short line
        start = time.perf_counter()
        result = run("hit", "--board", "stair:15000", "--method", method)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        blocks, budget = "15000 blocks of total width 15000", placements.HIT_DP_MAX_STATES
        if method == "eq26":
            message = f"eq26 over {blocks} sums over 2^15000 vectors e, past the budget of {budget}"
        else:
            message = f"{method} tables over {blocks} need 2^15000 position-scan states, past the budget of {budget}"
        assert result.output == f"error: {message}\n"
        assert len(result.output) < 200

    def test_method_choices_are_the_hit_methods(self):
        (commands,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
        (option,) = [a for a in commands.choices["hit"]._actions if a.dest == "method"]
        assert option.choices == [*placements.HIT_METHODS, "all"]

    def test_full_board_past_the_subset_budget(self):
        # 16 columns of one height: one block, 17 position-scan states; the
        # only full placement puts all 16 rooks on the board
        result = run("hit", "--board", "heights:" + ",".join(["16"] * 16), "--method", "mat")
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert [row["k"] for row in rows] == list(range(17))
        assert all(row["coeffs"] == [] for row in rows[:16])
        assert LaurentPoly.from_dense_dict(rows[16]) == q_factorial(16)

    def test_all_methods_consistent(self):
        result = run("hit", "--board", "tri:3", "--method", "all", "--format", "text")
        assert result.exit_code == 0
        assert result.output.strip().endswith("CONSISTENT")
        assert "INCONSISTENT" not in result.output

    def test_json_payload(self):
        result = run("hit", "--board", "tri:2", "--k", "0", "--method", "mat")
        payload = json.loads(result.output)
        assert payload == {"k": 0, "method": "mat", "min_exp": 1, "coeffs": [1]}

    def test_csv_rows(self):
        result = run("hit", "--board", "stair:2", "--k", "1", "--method", "mat", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == "1,mat,1,1\n"

    def test_csv_zero_polynomial_is_one_row(self):
        # T_0 = 0 on the staircase: the identity hits every diagonal cell
        result = run("hit", "--board", "stair:2", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["0,mat,0,0", "1,mat,1,1", "2,mat,0,1"]

    def test_wrong_step_formula_is_inconsistent(self, monkeypatch):
        with cleared(placements.hit_polys):
            for name in ("eq24_divided", "_eq26_divided"):
                real = getattr(placements, name)
                monkeypatch.setattr(placements, name, lambda spec, real=real: tuple(t.shifted(1) for t in real(spec)))
            result = run("hit", "--board", "tri:3", "--method", "all", "--format", "text")
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "INCONSISTENT"

    def test_step_formula_on_explicit_spec(self):
        result = run(
            "hit", "--board", "steps:1x1,1x1", "--k", "1", "--method", "eq24",
            "--format", "text",
        )
        assert result.exit_code == 0
        assert result.output.strip() == "k=1 method=eq24: q"

    @pytest.mark.parametrize(
        "spelling,heights,method",
        [
            ("steps:0x1,1x1,0x2", "heights:0,1,1,1", "all"),
            # fifteen width-1 blocks would be 2^15 vectors e, past the budget;
            # the board is one block of width 15, 16 vectors
            ("steps:1x1" + ",0x1" * 14, "heights:" + ",".join(["1"] * 15), "eq26"),
        ],
    )
    def test_steps_spelling_prints_what_heights_prints(self, spelling, heights, method):
        # a board spec names the board only: eq24/eq26 read its maximal
        # step decomposition, not the blocks it was spelled with
        results = [run("hit", "--board", board, "--method", method, "--format", "text") for board in (spelling, heights)]
        assert [result.exit_code for result in results] == [0, 0]
        assert results[0].output == results[1].output

    def test_inadmissible_needs_step_methods(self):
        assert run("hit", "--board", "steps:3x1", "--method", "mat").exit_code == 2
        result = run(
            "hit", "--board", "steps:3x1", "--k", "1", "--method", "eq26",
            "--format", "text",
        )
        assert result.exit_code == 0


class TestStats:
    def test_classical(self):
        assert run("stats", "--word", "3521647", "--stat", "des").output.strip() == "3"
        assert run("stats", "--word", "3521647", "--stat", "maj").output.strip() == "10"
        assert run("stats", "--word", "2313212", "--stat", "exc").output.strip() == "3"
        assert run("stats", "--word", "231", "--stat", "den").output.strip() == "3"

    def test_families_and_variants(self):
        base = run("stats", "--word", "231", "--stat", "stat1", "--family", "xi")
        assert base.exit_code == 0
        shifted = run(
            "stats", "--word", "231", "--stat", "stat1", "--family", "xi",
            "--variant", "5",
        )
        n, k = 3, 1
        assert int(shifted.output) == n * k - int(base.output)

    def test_block_statistics(self):
        assert run("stats", "--word", "21", "--stat", "stat5").output.strip() == "1"
        result = run("stats", "--word", "2313212", "--stat", "stat6")
        assert result.exit_code == 0
        assert int(result.output) == stat6((2, 3, 1, 3, 2, 1, 2))

    def test_closed_forms(self):
        assert run("stats", "--word", "21", "--stat", "t5a").output.strip() == "1"
        assert run("stats", "--word", "211", "--stat", "t5b").output.strip() == "2"

    def test_stat7_pairs_with_exc(self):
        v = (2, 1, 1)
        words = list(words_over(v))
        values = {}
        for w in words:
            result = run("stats", "--word", "".join(map(str, w)), "--stat", "stat7")
            assert result.exit_code == 0
            values[w] = int(result.output)
            assert values[w] == stat7(w)
        assert joint_distribution(words, exc, values.__getitem__) == joint_distribution(
            words, des, maj
        )

    def test_malformed_word(self):
        assert run("stats", "--word", "2x1", "--stat", "des").exit_code == 2

    def test_letter_zero_is_usage_error(self):
        result = run("stats", "--word", "0", "--stat", "des")
        assert result.exit_code == 2
        assert "below 1" in result.output

    def test_every_small_word_and_statistic(self):
        # every word of a composition of 1..4, every statistic, both
        # families, with and without a variant: exit codes and output
        h = hashlib.sha256()
        runs = 0
        for v in compositions(range(1, 5)):
            for w in words_over(v):
                for name in STAT_NAMES:
                    for family in ("mat", "xi"):
                        for extra in ((), ("--variant", "6")):
                            args = ["stats", "--word", "".join(map(str, w)), "--stat", name, "--family", family, *extra]
                            result = run(*args)
                            h.update(repr((args, result.exit_code, result.output)).encode())
                            runs += 1
        assert runs == 4784
        assert h.hexdigest() == "7eb3ae474f0b63027f3b49cc0c804488f7ccc3eba0de1f7f9937b8031e228418"

    def test_den_needs_permutation(self):
        assert run("stats", "--word", "11", "--stat", "den").exit_code == 2


class TestMatrices:
    @pytest.mark.parametrize("board,prime,power", [("stair:200", 2, "2^20100"), ("stair:30000", 3, "3^450015000")])
    def test_budget_is_decided_without_forming_p_to_the_area(self, board, prime, power):
        start = time.perf_counter()
        result = run("matrices", "--board", board, "--prime", str(prime))
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert result.output == f"error: p^Area = {power} exceeds the enumeration budget 10000000\n"

    def test_definition_board(self):
        result = run("matrices", "--board", "heights:0,1,2", "--prime", "2")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "ranks: 1,5,2,0"
        assert lines[1] == "THEOREM1 PASS"

    def test_wrong_formula_fails_theorem1(self, monkeypatch):
        real = ffmat.p_k_formula
        with cleared(ffmat.rank_distribution):
            monkeypatch.setattr(ffmat, "p_k_formula", lambda board, k: real(board, k).shifted(1))
            result = run("matrices", "--board", "heights:0,1,2", "--prime", "2")
        assert result.exit_code == 1
        assert result.output.splitlines() == ["ranks: 1,5,2,0", "THEOREM1 FAIL"]

    def test_identity_violation_is_a_failed_check(self, monkeypatch):
        # R_k times q^(Area + 1) gives the rank-count polynomial negative
        # powers: p_k_formula raises, and the CLI reports it as a failed check
        def shifted(board, k):
            return placements.rook_poly(board, k).shifted(board.area + 1)

        with cleared(ffmat.rank_distribution):
            monkeypatch.setattr(ffmat, "rook_poly", shifted)
            result = run("matrices", "--board", "heights:0,1,2", "--prime", "2")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "ranks: 1,5,2,0",
            "error: rank-count polynomial q^-4 of heights:0,1,2 at k=0 has negative powers",
        ]

    def test_budget_exceeded_is_usage_error(self):
        # p^Area = 7^15 is over the enumeration budget of 10^7
        result = run("matrices", "--board", "stair:5", "--prime", "7")
        assert result.exit_code == 2
        assert "budget" in result.output

    def test_non_prime(self):
        assert run("matrices", "--board", "tri:2", "--prime", "6").exit_code == 2

    def test_negative_prime_is_not_prime_before_the_budget(self):
        # (-100000)^2 would overrun the enumeration budget
        result = run("matrices", "--board", "heights:1,1", "--prime", "-100000")
        assert result.exit_code == 2
        assert result.output == "error: -100000 is not prime\n"


class TestVerify:
    def test_suite_passes(self):
        result = run("verify", "--suite", "rook", "--max-n", "2")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("TOTAL pass=") and lines[-1].endswith("fail=0")

    def test_all_suites_small(self):
        result = run("verify", "--suite", "all", "--max-n", "2")
        assert result.exit_code == 0
        assert "fail=0" in result.output.splitlines()[-1]

    def test_unknown_suite(self):
        assert run("verify", "--suite", "nope").exit_code == 2

    def test_max_n_below_one_is_usage_error(self):
        for suite in ("all", "rook"):
            result = run("verify", "--suite", suite, "--max-n", "0")
            assert result.exit_code == 2
            assert "TOTAL" not in result.output


class TestEmptyBoard:
    """The board with no columns, spelled heights: as its ``str``."""

    def test_rook(self):
        result = run("rook", "--board", "heights:", "--format", "text")
        assert result.exit_code == 0
        assert result.output == "k=0: 1\n"

    def test_hit_all_methods(self):
        result = run("hit", "--board", "heights:", "--method", "all", "--format", "text")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            f"k=0 method={m}: 1" for m in ("mat", "xi", "defining", "eq24", "eq26")
        ] + ["CONSISTENT"]

    def test_matrices(self):
        result = run("matrices", "--board", "heights:", "--prime", "2")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["ranks: 1", "THEOREM1 PASS"]


class TestTable:
    def test_header_and_shape(self):
        result = run("table", "--family", "mat", "--n", "3")
        lines = result.output.splitlines()
        assert lines[0] == "perm,des,maj," + ",".join(f"stat{i}" for i in range(1, 9))
        assert len(lines) == 1 + 6

    def test_deterministic(self):
        a = run("table", "--family", "xi", "--n", "4").output
        b = run("table", "--family", "xi", "--n", "4").output
        assert a == b


class TestCapturedStreams:
    """An in-process run must not keep its captured output alive."""

    @staticmethod
    def released(args) -> tuple[bool, bool]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args), standalone_mode=False)
            except SystemExit:
                pass
        refs = weakref.ref(out), weakref.ref(err)
        del out, err
        gc.collect()
        return tuple(ref() is None for ref in refs)

    def test_stdout_is_released(self):
        assert self.released(["rook", "--board", "stair:2"]) == (True, True)
        assert self.released(["hit", "--board", "stair:2", "--method", "all"]) == (True, True)

    def test_stderr_is_released(self):
        assert self.released(["rook", "--board", "bogus:1"]) == (True, True)


def python(*args, **popen):
    """A fresh interpreter with the library on the path and stdout
    block-buffered in a pipe, as it is by default."""
    src = str(Path(verify.__file__).parent.parent)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, **popen)


class TestProcess:
    """The command line as a process sees it: its imports, its streams."""

    def test_runs_without_click(self):
        proc = python(
            "-c",
            "import sys, qrook.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'click'))",
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.communicate(timeout=60)[0] == "[]\n"
        proc = python("-m", "qrook.cli", "rook", "--board", "stair:2", stdout=subprocess.PIPE, text=True)
        out = proc.communicate(timeout=60)[0]
        assert proc.returncode == 0
        assert out == run("rook", "--board", "stair:2").output

    def test_error_line_follows_the_lines_before_it(self):
        # stdout is block-buffered in a pipe and stderr is not: the error
        # line comes after the rank line only because stdout is flushed first
        proc = python(
            "-c",
            "from qrook import ffmat\n"
            "from qrook.cli import main\n"
            "from qrook.qpoly import IdentityViolation\n"
            "def broken(board, k):\n"
            "    raise IdentityViolation('p_k_formula refused')\n"
            "ffmat.p_k_formula = broken\n"
            "main(['matrices', '--board', 'heights:0,1,2', '--prime', '2'])",
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        out = proc.communicate(timeout=60)[0]
        assert proc.returncode == 1
        assert out == "ranks: 1,5,2,0\nerror: p_k_formula refused\n"

    def test_closed_pipe_exits_1_quietly(self):
        # qrook table ... | head -1: 5,041 rows, far more than a pipe holds
        proc = python(
            "-m", "qrook.cli", "table", "--n", "7", stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert proc.stdout.readline() == b"perm,des,maj,stat1,stat2,stat3,stat4,stat5,stat6,stat7,stat8\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1
