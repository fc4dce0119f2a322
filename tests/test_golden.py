"""Per-word values and whole CLI outputs pinned to digests.

The suites compare joint distributions only, so a change that permutes
statistic values among words would pass them; these digests pin every
value.  Each digest is SHA-256 over the repr of one row after another.
"""

import hashlib

from click.testing import CliRunner

from qrook.boards import all_step_specs, compositions
from qrook.cli import main
from qrook.permstat import mat_word, stat5, stat6, stat7, words_over, xi_word


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
        result = CliRunner().invoke(main, ["table", "--family", family, "--n", "6"])
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
    result = CliRunner().invoke(main, ["verify", "--suite", "all", "--max-n", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 2973 and lines[-1] == "TOTAL pass=2972 fail=0"
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "90a19ea56c77f8ffd0dd32d903cc2cadcc37e25b4a0d87b39c1f09edb0823eb3"
    )


def test_hit_all_methods_output():
    h = hashlib.sha256()
    for board in ("heights:0,1,2", "stair:9", "tri:6", "heights:1,1,3,3", "heights:0,2,2,4,5,6", "heights:"):
        result = CliRunner().invoke(main, ["hit", "--board", board, "--method", "all", "--format", "json"])
        assert result.exit_code == 0 and result.output.endswith("CONSISTENT\n")
        h.update(result.output.encode())
    assert h.hexdigest() == "f0c68a1dc90f6eb6fd23417303a7b6ecef0b58a5aae4bb56e42e4f36c32547b8"
