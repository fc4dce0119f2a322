import json

from click.testing import CliRunner

from qrook.cli import main
from qrook.qpoly import LaurentPoly


def run(*args):
    return CliRunner().invoke(main, list(args))


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

    def test_bad_board_is_usage_error(self):
        result = run("rook", "--board", "bogus:1")
        assert result.exit_code == 2
        result = run("rook", "--board", "heights:2,1")
        assert result.exit_code == 2

    def test_bad_k(self):
        assert run("rook", "--board", "tri:2", "--k", "9").exit_code == 2


class TestHit:
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

    def test_step_formula_on_explicit_spec(self):
        result = run(
            "hit", "--board", "steps:1x1,1x1", "--k", "1", "--method", "eq24",
            "--format", "text",
        )
        assert result.exit_code == 0
        assert result.output.strip() == "k=1 method=eq24: q"

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
        result = run("stats", "--word", "2313212", "--stat", "stat6", "--v", "2,3,2")
        assert result.exit_code == 0

    def test_closed_forms(self):
        assert run("stats", "--word", "21", "--stat", "t5a").output.strip() == "1"
        assert run("stats", "--word", "211", "--stat", "t5b").output.strip() == "2"

    def test_malformed_word(self):
        assert run("stats", "--word", "2x1", "--stat", "des").exit_code == 2

    def test_den_needs_permutation(self):
        assert run("stats", "--word", "11", "--stat", "den").exit_code == 2


class TestMatrices:
    def test_definition_board(self):
        result = run("matrices", "--board", "heights:0,1,2", "--prime", "2")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "ranks: 1,5,2,0"
        assert lines[1] == "THEOREM1 PASS"

    def test_budget_exceeded_is_usage_error(self):
        result = run(
            "matrices", "--board", "stair:3", "--prime", "5", "--budget", "100"
        )
        assert result.exit_code == 2
        assert "budget" in result.output

    def test_non_prime(self):
        assert run("matrices", "--board", "tri:2", "--prime", "6").exit_code == 2


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
