"""Tests of the benchmark itself: its references, its failure accounting,
its tracer, and that BENCHMARK.json matches the definitions in run.py.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from workloads import Cli, Suite

QROOK = run.import_qrook()


def _brute_rook_numbers(heights):
    cells = [(r, c) for c, h in enumerate(heights) for r in range(h)]
    n = len(heights)
    counts = [0] * (n + 1)
    for k in range(n + 1):
        for combo in itertools.combinations(cells, k):
            if len({r for r, _ in combo}) == k and len({c for _, c in combo}) == k:
                counts[k] += 1
    return tuple(counts)


def _brute_rank_counts(heights, p):
    n = len(heights)
    cells = [(r, c) for c, h in enumerate(heights) for r in range(h)]
    counts = [0] * (n + 1)
    for values in itertools.product(range(p), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (r, c), v in zip(cells, values):
            rows[r][c] = v
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            for r in range(n):
                if r != rank and rows[r][col]:
                    f = rows[r][col] * inv % p
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        counts[rank] += 1
    return tuple(counts)


def _small_boards():
    return [h for n in range(1, 5) for h in workloads._boards(n)]


def test_spec_file_matches_definitions():
    with open(run.ROOT / "BENCHMARK.json") as f:
        assert json.load(f) == run.spec()


def test_rook_and_hit_references_match_brute_force():
    for h in _small_boards():
        assert workloads.rook_numbers(h) == _brute_rook_numbers(h)
        hits = [0] * (len(h) + 1)
        for sigma in itertools.permutations(range(len(h))):
            hits[sum(1 for row, col in enumerate(sigma) if row < h[col])] += 1
        assert workloads.hit_numbers(h) == tuple(hits)


def test_rank_reference_matches_brute_force():
    for h in _small_boards():
        for p in (2, 3):
            if p ** sum(h) <= 5000:
                assert workloads.rank_counts(h, p) == _brute_rank_counts(h, p)


def test_seeded_inputs_repeat_and_keep_their_cost():
    a, b = workloads.steps_for("rank-counts", 7), workloads.steps_for("rank-counts", 7)
    assert [s.args for s in a if isinstance(s, Cli)] == [s.args for s in b if isinstance(s, Cli)]

    # every seed queries the same boards, in another order
    c = workloads.steps_for("rank-counts", 8)
    assert sorted(s.args for s in a[:-1]) == sorted(s.args for s in c[:-1])
    assert [s.args for s in a[:-1]] != [s.args for s in c[:-1]]
    assert len(workloads.steps_for("board-queries", 3)) == 2 * workloads.BOARD_QUERIES


CLI_BOARDS = [(0, 1, 2), (1, 2, 3), (1, 1, 3), (2, 2, 3)]


def _cli_steps():
    steps = []
    for h in CLI_BOARDS:
        spec = workloads._spec(h)
        steps += [
            Cli(("rook", "--board", spec), lambda c, o, h=h: workloads.check_rook(h, c, o)),
            Cli(
                ("hit", "--board", spec, "--method", "all"),
                lambda c, o, h=h: workloads.check_hit_all(h, c, o),
            ),
            Cli(
                ("matrices", "--board", spec, "--prime", "2"),
                lambda c, o, h=h: workloads.check_matrices(h, 2, c, o),
            ),
        ]
    return steps


def test_clean_ops_pass_their_checks():
    ops = run.Runner(QROOK).run_pass(_cli_steps() + [Suite("ffmat", 2)])
    assert ops and all(op.error is None for op in ops)


@pytest.mark.parametrize("index", range(run.INJECT_AT, run.INJECT_AT + 3))
def test_corrupted_cli_output_is_a_failed_op(monkeypatch, index):
    # one op of each kind (rook, hit, matrices) gets its first digit bumped
    monkeypatch.setattr(run, "INJECT_AT", index)
    ops = run.Runner(QROOK, inject="output").run_pass(_cli_steps())
    assert [i for i, op in enumerate(ops) if op.error is not None] == [index]


def test_usage_error_exit_is_a_failed_op():
    # p^Area = 7^15 is over the enumeration budget: exit code 2
    stair = (1, 2, 3, 4, 5)
    step = Cli(
        ("matrices", "--board", "stair:5", "--prime", "7"),
        lambda c, o: workloads.check_matrices(stair, 7, c, o),
    )
    (op,) = run.Runner(QROOK).run_pass([step])
    assert op.error == "exit code 2"


def test_escaped_exception_fails_one_op_and_the_run_goes_on(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("pivot count must equal the rank")

    monkeypatch.setattr(QROOK["ffmat"], "theorem1_check", broken)
    ops = run.Runner(QROOK).run_pass([Suite("ffmat", 2), Suite("rook", 1)])
    failed = [op for op in ops if op.error is not None]
    assert len(failed) == 1 and "AssertionError" in failed[0].error
    assert ops[-1].output.startswith("PASS staircase-stirling")


def test_digest_mismatch_counts_as_a_failure(monkeypatch, tmp_path):
    _, ops = run.timed_pass(run.Runner(QROOK), [Suite("rook", 2)])
    table = tmp_path / "digests.json"
    table.write_text(json.dumps({"verify-identities": run.digest(ops)}))
    monkeypatch.setattr(run, "DIGESTS", table)
    expected = run.expected_digest("verify-identities", 5)
    assert run.pass_failures(ops, expected) == 0
    _, bad = run.timed_pass(run.Runner(QROOK, inject="output"), [Suite("rook", 2)])
    assert bad[run.INJECT_AT].error is None  # the line still reads PASS
    assert run.pass_failures(bad, expected) == 1
    assert run.expected_digest("board-queries", 5) is None


def test_tracer_spans_nest_and_bindings_come_back(tmp_path):
    placements = QROOK["placements"]
    original = placements.rook_poly
    runner = run.Runner(QROOK)
    runner.tracer = tracer = spans.Tracer()
    tracer.install(QROOK)
    try:
        assert placements.rook_poly is not original
        _, ops = run.timed_pass(runner, _cli_steps() + [Suite("ffmat", 2)])
    finally:
        tracer.uninstall()
    assert placements.rook_poly is original
    assert QROOK["verify"].SUITES["rook"] is QROOK["verify"].suite_rook
    assert all(op.error is None for op in ops)

    path = tmp_path / "spans.bin"
    tracer.write(path)
    names, fields = spans.read_spans(path)
    start, end, parent = fields["start"], fields["end"], fields["parent"]
    assert len(start) == len(tracer.spans["start"]) > 0
    roots = 0.0
    for i in range(len(start)):
        p = parent[i]
        if p < 0:
            roots += end[i] - start[i]
        else:
            assert start[p] <= start[i] <= end[i] <= end[p]
            assert fields["op"][i] == fields["op"][p]
    assert math.isclose(sum(tracer.self_s), roots, rel_tol=1e-6)
    assert {"cli.main", "placements.hit_polys.mat", "ffmat.rank_ff"} <= set(names)

    values = spans.layer_metrics(tracer, spans.cache_stats(QROOK), len(ops), 1.0)
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}
    # work counts come from inputs: 4 boards, n = 3, mat and xi each
    assert values["placements.permutations_enumerated"] >= 4 * 2 * math.factorial(3)
    assert values["ffmat.matrices_enumerated"] >= sum(2 ** sum(h) for h in CLI_BOARDS)


def test_reference_never_calls_qrook():
    # the host-speed scale must not move when qrook changes
    tracer = spans.Tracer()
    tracer.install(QROOK)
    try:
        assert run.reference_seconds() > 0
    finally:
        tracer.uninstall()
    assert len(tracer.spans["start"]) == 0


def _bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("inject", ["output", "raise"])
def test_command_exits_nonzero_on_a_failed_op(inject):
    proc = _bench("--workload", "word-stats", "--seconds", "0", "--inject", inject)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == run.MIN_PASSES
    fail_ratio = float(proc.stdout.split("fail_ratio=")[1].split()[0])
    assert fail_ratio > 0 and fail_ratio == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    if inject == "raise":
        # the mahonian suite ends at the exception, the euler suite still runs
        assert result["attempted"] > run.MIN_PASSES * (run.INJECT_AT + 1)


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "word-stats", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
