"""Per-word values and whole CLI outputs pinned to digests.

The suites compare joint distributions only, so a change that permutes
statistic values among words would pass them; these digests pin every
value.  Each digest is SHA-256 over the repr of one row after another.
"""

import hashlib

from qrook.boards import all_step_specs, compositions
from qrook.permstat import mat_word, stat5, stat6, stat7, words_over, xi_word

from cli_runner import invoke


def rows_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


def test_table_outputs():
    expected = {
        "mat": "9c58f1316233e2ed732d5b98990635d680a17c8e5f9c1ef43c666a2439c66a17",
        "xi": "3d3a6dba7249a8932f89f738e4d28b3f64f08618c0bf2fa9ce0676278322df66",
    }
    for family, digest in expected.items():
        result = invoke(["table", "--family", family, "--n", "6"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 721
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_word_lift_statistics():
    rows = [
        (spec.steps, w, mat_word(w, spec), xi_word(w, spec))
        for n in range(1, 6)
        for spec in all_step_specs(n, admissible_only=True)
        for w in words_over(spec.widths)
    ]
    assert len(rows) == 62257
    assert rows_digest(rows) == "6c8135e4173b48d0c0352f948a541fa7cb2152473a1a1727685b9862c6e55233"


def test_block_statistics():
    rows = [
        (v, w, stat5(w), stat6(w), stat7(w))
        for v in compositions(range(1, 7))
        for w in words_over(v)
    ]
    assert len(rows) == 5316
    assert rows_digest(rows) == "a882e5511171e685512053e832fea80bc7b2a8ad17c50171ec6ff1fbfffec171"


def test_verify_all_output():
    result = invoke(["verify", "--suite", "all", "--max-n", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 2973 and lines[-1] == "TOTAL pass=2972 fail=0"
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "90a19ea56c77f8ffd0dd32d903cc2cadcc37e25b4a0d87b39c1f09edb0823eb3"
    )


def test_hit_all_methods_output():
    h = hashlib.sha256()
    for board in ("heights:0,1,2", "stair:9", "tri:6", "heights:1,1,3,3", "heights:0,2,2,4,5,6", "heights:"):
        result = invoke(["hit", "--board", board, "--method", "all", "--format", "json"])
        assert result.exit_code == 0 and result.output.endswith("CONSISTENT\n")
        h.update(result.output.encode())
    assert h.hexdigest() == "f0c68a1dc90f6eb6fd23417303a7b6ecef0b58a5aae4bb56e42e4f36c32547b8"


def test_suite_outputs():
    expected = {
        "steps": ("TOTAL pass=2468 fail=0", "f601d23ec1a11b97790590c08411d20297ee88b0dcf5a4ef96926efa21fcb226"),
        "unimodal": ("TOTAL pass=3505 fail=0", "736e14bb251a4aa6532b05cc9ab71cf5c817f43acce9c9751678d2fe96ef7b3f"),
        "euler": ("TOTAL pass=255 fail=0", "2752204ff9f8353dc0898e893451d94405acf07095cf105a11123f44e8b4b464"),
        "mahonian": ("TOTAL pass=2468 fail=0", "dd7ed491e9e5c19688c80e9420be3abc2a728726f7c80559a0cbb99f35227abf"),
    }
    for suite, (total, digest) in expected.items():
        result = invoke(["verify", "--suite", suite, "--max-n", "5"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == total
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_eq24_equals_defining_past_enumeration():
    # 20! permutations, past enumeration: formula (24) against the defining
    # product identity over the rook polynomials
    bare = {}
    for method in ("eq24", "defining"):
        result = invoke(["hit", "--board", "stair:20", "--method", method, "--format", "text"])
        assert result.exit_code == 0
        bare[method] = result.output.replace(f" method={method}:", ":")
    assert bare["eq24"] == bare["defining"]
    assert len(bare["eq24"].splitlines()) == 21
    assert hashlib.sha256(bare["eq24"].encode()).hexdigest() == (
        "3b8be28310140842560fc58fdd1f97a62cf15bfa602fa11d60645d425531da52"
    )


def test_step_formulas_on_an_inadmissible_board():
    # only the step formulas apply to steps:3x1, a column taller than the grid
    for method in ("eq24", "eq26"):
        result = invoke(["hit", "--board", "steps:3x1", "--method", method])
        assert result.exit_code == 0
        assert result.output == (
            f'{{"coeffs": [-1, -1], "k": 0, "method": "{method}", "min_exp": 1}}\n'
            f'{{"coeffs": [1, 1, 1], "k": 1, "method": "{method}", "min_exp": 0}}\n'
        )


def test_rank_counts_output():
    # the primes the rank-counts benchmark queries
    expected = {
        ("stair:4", 3): "1,284,9300,37800,11664",
        ("heights:" + ",".join(["1"] * 16), 2): "1,65535" + ",0" * 15,
        ("heights:1,1,2,3", 5): "1,844,29280,48000,0",
        ("heights:0,1,2,3", 7): "1,972,42588,74088,0",
    }
    for (board, p), ranks in expected.items():
        result = invoke(["matrices", "--board", board, "--prime", str(p)])
        assert result.exit_code == 0
        assert result.output == f"ranks: {ranks}\nTHEOREM1 PASS\n"


def test_block_statistics_of_one_word():
    # the multiplicity vector (2, 3, 2) is read off the word
    for stat, value in {"stat5": 10, "stat6": 12, "stat7": 12, "t5b": 10}.items():
        result = invoke(["stats", "--word", "2313212", "--stat", stat])
        assert result.exit_code == 0
        assert result.output == f"{value}\n"
