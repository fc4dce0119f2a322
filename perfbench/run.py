"""End-to-end benchmark of the qrook library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify-identities --seed 1 --seconds 10 --trace 0

Each run imports ``qrook`` from ``src/`` into this one process and works
single-threaded.  A pass clears every ``lru_cache`` first, because each
``qrook`` CLI call starts a fresh process and pays those misses, then runs
the workload's ops: one in-process CLI invocation through
``cli.main(..., standalone_mode=False)``, or one ``CheckResult`` yielded by
a verification suite.  Passes repeat until ``--seconds`` have gone by, and
at least three times; a pass takes a second or less, so a run samples
every op twenty times or more.  Every op output is checked (see ``workloads.py``);
the verify workloads, and the seeded ones at the default seed, must also
reproduce the stored output digest byte for byte.  An op fails on a FAIL
check, a non-zero exit, an exception that escapes it, or a failed output
check; the run goes on, and a run with a failure exits 1.

``--trace 0`` reports the end-to-end metrics: wall time of a pass and op
latency p50/p90, where each op's latency is its best over at least three
passes and the wall time is their sum; peak RSS; and the median time a fresh
interpreter takes to import ``qrook.cli``, timed between the passes.  A
shared host's speed swings by tens of percent over seconds and minutes, and
moves every computation alike, so a fixed pure-Python reference that never
calls qrook is timed before each pass too, and every timing is scaled by
the nominal reference time over the run's best one: the figures are what
the nominal host would show.  The summary line gives that speed factor.
``--trace 1`` runs one pass untraced (wall time, cache statistics) and one
traced pass (see ``spans.py``), reports the per-layer metrics, unscaled,
and writes the spans to ``.perfbench_out/``.  The last stdout line is the JSON result.

``--write-spec`` writes ``BENCHMARK.json`` from the definitions here and
``--record-digests`` stores the output digests of the current code.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from workloads import Cli, Suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
RUN_SECONDS = 25
SETUP_REPEATS = 15  # at least this many fresh imports per run
SETUP_PER_PASS = 1
MIN_PASSES = 3  # samples per op, so one quiet pass is likely among them
REF_BOARDS = [h for n in range(1, 6) for h in workloads._boards(n)]
REF_PER_PASS = 5
# the reference computation's best time on a 2-vCPU Xeon host at a quiet
# moment; reported timings are what they would be on that host
REF_NOMINAL_S = 0.0035
INJECT_AT = 3  # op index that --inject corrupts or makes raise

# Bounds: on a shared 2-vCPU host the speed of the same code swings by up
# to 1.5x within seconds and by a third over minutes, so the timings keep
# the widest bound even though the best-of-samples, host-speed-scaled
# figures spread less; memory varies by under 3%.
END_TO_END = [
    # (name, unit, bound)
    ("wall_s", "s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("setup_s", "s", 0.25),
]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in spans.PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    latency_s: float
    output: str
    error: str | None  # None while the op has not failed


def _corrupt(text: str) -> str:
    """Bump the first digit, the smallest change an output check must catch."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1 :]
    return text + "?"


class Runner:
    def __init__(self, qrook: dict, inject: str | None = None):
        self.qrook = qrook
        self.inject = inject
        self.tracer: spans.Tracer | None = None
        # held here because tracing rebinds the module names to wrappers
        self.caches = [getattr(qrook[layer], fn) for layer, fn in spans.CACHES]

    def clear_caches(self) -> None:
        for cached in self.caches:
            cached.cache_clear()

    def run_pass(self, steps: list) -> list[Op]:
        """Run every step once, keeping going past failed ops."""
        ops: list[Op] = []
        for step in steps:
            if isinstance(step, Cli):
                ops.append(self._cli_op(step, len(ops)))
            else:
                ops.extend(self._suite_ops(step, len(ops)))
        return ops

    def _begin(self, index: int) -> None:
        if self.tracer:
            self.tracer.op = index
        if self.inject == "raise" and index == INJECT_AT:
            raise RuntimeError("injected failure")

    def _finish(self, index: int, output: str) -> str:
        return _corrupt(output) if self.inject == "output" and index == INJECT_AT else output

    def _cli_op(self, step: Cli, index: int) -> Op:
        cli = self.qrook["cli"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            self._begin(index)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(step.args), standalone_mode=False) or 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            return Op(time.perf_counter() - t0, "", traceback.format_exc(limit=3))
        latency = time.perf_counter() - t0
        output = self._finish(index, out.getvalue())
        return Op(latency, f"exit {code}\n{output}", step.check(code, output))

    def _suite_ops(self, step: Suite, first: int) -> list[Op]:
        # one suite per run_suites call, so an exception that escapes a
        # suite ends only that suite
        results = self.qrook["verify"].run_suites([step.name], step.max_n)
        ops = []
        while True:
            index = first + len(ops)
            t0 = time.perf_counter()
            try:
                self._begin(index)
                result = next(results)
            except StopIteration:
                return ops
            except Exception:
                ops.append(Op(time.perf_counter() - t0, "", traceback.format_exc(limit=3)))
                return ops
            latency = time.perf_counter() - t0
            line = self._finish(index, result.line())
            ok = result.ok and line.startswith("PASS ")
            ops.append(Op(latency, line, None if ok else f"check failed: {line}"))


def timed_pass(runner: Runner, steps: list) -> tuple[float, list[Op]]:
    runner.clear_caches()
    t0 = time.perf_counter()
    ops = runner.run_pass(steps)
    return time.perf_counter() - t0, ops


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.output.encode() + b"\0")
    return h.hexdigest()


def expected_digest(workload: str, seed: int) -> str | None:
    """The stored output digest, for the fixed-input workloads at any seed
    and for the seeded ones at the default seed."""
    if workloads.seeded(workload) and seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def pass_failures(ops: list[Op], expected: str | None) -> int:
    """Failed ops, or one failure when every op passed its check but the
    outputs differ from the stored digest (some op's output is then wrong)."""
    bad = [op for op in ops if op.error is not None]
    for op in bad[:3]:
        print(f"FAILED op: {op.error.strip()}", file=sys.stderr)
    if not bad and expected is not None and digest(ops) != expected:
        print(f"FAILED: output digest differs from {DIGESTS.name}", file=sys.stderr)
        return 1
    return len(bad)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def setup_seconds() -> float:
    """Time for a fresh interpreter to import qrook.cli."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qrook.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Time of a fixed pure-Python computation that never calls qrook: the
    benchmark's own rook and rank references on every board with n <= 5.
    The collector is off meanwhile, so the size of qrook's heap cannot
    reach it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for h in REF_BOARDS:
            workloads.rook_numbers.__wrapped__(h)
            workloads.rank_counts(h, 3)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_speed(ref_times: list[float]) -> float:
    """How much faster than nominal the host ran: the nominal reference
    time over the run's best one, sampled like the ops."""
    return REF_NOMINAL_S / min(ref_times)


def end_to_end(latencies: list[array.array], setup_times: list[float], speed: float) -> dict[str, float]:
    """Each op's best latency over the passes: outside load only ever slows
    an op down, so the minimum is the steadiest estimate of its cost.  The
    wall time is their sum; p50 and p90 are taken over the ops.  Every
    timing is scaled to the nominal host speed."""
    per_op_ms = [min(samples) * 1e3 * speed for samples in zip(*latencies)]
    return {
        "wall_s": sum(per_op_ms) / 1e3,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p90_ms": statistics.quantiles(per_op_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times) * speed,
    }


def import_qrook() -> dict:
    if not (SRC / "qrook" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'qrook'} not found; the benchmark runs the library in src/")
    sys.path.insert(0, str(SRC))
    import qrook
    from qrook import boards, cli, ffmat, permstat, placements, qpoly, verify

    return {
        "qrook": qrook, "qpoly": qpoly, "boards": boards, "placements": placements,
        "ffmat": ffmat, "permstat": permstat, "verify": verify, "cli": cli,
    }


def run(args) -> int:
    qrook = import_qrook()
    steps = workloads.steps_for(args.workload, args.seed)
    expected = expected_digest(args.workload, args.seed)
    runner = Runner(qrook, args.inject)
    attempted = failed = 0
    if args.trace:
        untraced_s, ops = timed_pass(runner, steps)
        caches = spans.cache_stats(qrook)
        attempted, failed = len(ops), pass_failures(ops, expected)
        runner.tracer = tracer = spans.Tracer()
        tracer.install(qrook)
        try:
            traced_s, ops = timed_pass(runner, steps)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + len(ops), failed + pass_failures(ops, expected)
        checks = sum(op.output.startswith(("PASS ", "FAIL ")) for op in ops)
        values = spans.layer_metrics(tracer, caches, checks, traced_s / untraced_s)
        units = {n: u for n, u, _ in spans.PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}.bin"
        tracer.write(path)
        print(f"{len(tracer.spans['start'])} spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        passes = 2
    else:
        # one untimed import first, so bytecode caches exist as for any
        # installed CLI; the timed ones are spread over the run, so their
        # median does not hang on the host's speed in one moment
        setup_seconds()
        setup_times: list[float] = []
        ref_times: list[float] = []
        latencies: list[array.array] = []
        started = time.perf_counter()
        while len(latencies) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            setup_times += [setup_seconds() for _ in range(SETUP_PER_PASS)]
            ref_times += [reference_seconds() for _ in range(REF_PER_PASS)]
            _, ops = timed_pass(runner, steps)
            attempted, failed = attempted + len(ops), failed + pass_failures(ops, expected)
            latencies.append(array.array("d", (op.latency_s for op in ops)))
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_seconds())
        speed = host_speed(ref_times)
        values = end_to_end(latencies, setup_times, speed)
        units = {n: u for n, u, _ in END_TO_END}
        passes = len(latencies)
        print(
            f"host speed {speed:.4g} (reference best {min(ref_times) * 1e3:.4g} ms, nominal "
            f"{REF_NOMINAL_S * 1e3:g} ms); unscaled wall_s={values['wall_s'] / speed:.6g} s"
        )
    summary = ", ".join(f"{n}={v:.6g} {units[n]}" for n, v in values.items())
    print(f"{args.workload} seed={args.seed} passes={passes} ops={attempted} samples={len(ops)}")
    print(f"fail_ratio={failed / attempted:.6g} ratio, {summary}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def record_digests() -> int:
    qrook = import_qrook()
    runner = Runner(qrook)
    table = {}
    for name in workloads.WORKLOADS:
        _, ops = timed_pass(runner, workloads.steps_for(name, workloads.DEFAULT_SEED))
        bad = [op.error for op in ops if op.error is not None]
        if bad:
            sys.exit(f"error: {name} has failing ops, digests not recorded: {bad[0]}")
        table[name] = digest(ops)
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("output", "raise"), help="break op %d on purpose" % INJECT_AT)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    parser.add_argument("--record-digests", action="store_true", help="store output digests and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
