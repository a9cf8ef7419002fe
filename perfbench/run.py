"""Benchmark of the gottesman type checker: verdict latency per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``transport``, ``measure``, ``oracle`` and ``cli``. Each is a closed loop
with one client in one process; ``cli`` runs one subprocess at a time.

With ``--trace 0`` a run prints the end-to-end metrics: set-up time (the
median over several fresh processes), verdict latency p50 and p90,
instructions per second, and peak RSS. It measures at least
``--seconds`` seconds and at least 100 verdicts, in whole blocks of the
workload's configurations. Times are scaled to a reference machine
speed measured around each verdict (see calibration.py); the unscaled
wall times are printed on the summary line. With ``--trace 1`` it runs
a fixed set of requests with spans around the package's public
functions and prints per-layer counts and shares of verdict time
instead.

Every verdict is checked against a known answer. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failed share. ``correct`` is false when a verdict disagrees with its
known answer for any reason other than the one known defect that the
``measure`` workload records (ROADMAP section 3), or when a traced
counter disagrees with the count the requests imply.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import calibration
import workloads as wl
from tracing import Tracer

MIN_VERDICTS = 100       # so that ten verdicts lie beyond p90
MAX_LOOP_SECONDS = 120   # keeps a run within its time limit if the program slows
SETUPS = 5               # fresh processes whose set-up time is the median
IMPORT_PROBES = 5
TRACED_MIN = 12          # a traced run covers the fewest whole blocks with this many
CHILD_TIMEOUT = 60
HERE = Path(__file__).resolve().parent


class Runner:
    """Runs one request against the package; returns what it printed."""

    def __init__(self, workload: str, root: Path, in_process: bool):
        self.workload = workload
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        if not in_process:
            self.run = self._subprocess
            return
        sys.path.insert(0, str(root / "src"))
        import gottesman
        from gottesman import checker, cli, gates

        where = Path(gottesman.__file__).resolve().parent.parent
        if where != (root / "src").resolve():
            raise SystemExit(f"perfbench: imported gottesman from {where}, not ./src")
        gates.standard_gates()
        self.cli, self.checker = cli, checker
        inline = workload in ("transport", "measure")
        self.run = self._parse_and_check if inline else self._cli_in_process

    def _args(self, req: wl.Request) -> list[str]:
        path = req.source if self.workload == "oracle" else f"circuits/{req.source}"
        return [req.mode, path, "--json"]

    def _parse_and_check(self, req: wl.Request) -> str:
        circuit, input_type = self.cli.parse(req.source)
        if req.mode == "tableau":
            tab = self.checker.infer_tableau(circuit)
            return "\n".join(
                f"{prefix}{k} -> {image}"
                for prefix, images in (("X", tab.x_images), ("Z", tab.z_images))
                for k, image in enumerate(images, start=1)
            )
        return str(self.checker.check(circuit, input_type))

    def _cli_in_process(self, req: wl.Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.run(self._args(req))
        return status, out.getvalue()

    def _subprocess(self, req: wl.Request):
        proc = subprocess.run(
            [sys.executable, "-m", "gottesman", *self._args(req)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        return proc.returncode, proc.stdout


def timed_verdict(bench, req: wl.Request, run) -> tuple[float, wl.Judgement]:
    """Time one verdict, then judge it outside the timed interval."""
    start = time.perf_counter()
    try:
        out = run(req)
    except Exception as err:  # a raising verdict is a failed request
        return time.perf_counter() - start, wl.Judgement(wl.WRONG, f"raised {err!r}")
    elapsed = time.perf_counter() - start
    try:
        return elapsed, bench.judge(req, out)
    except (ValueError, KeyError, TypeError) as err:
        return elapsed, wl.Judgement(wl.WRONG, f"unreadable output: {err!r}")


def set_up(bench, root: Path, in_process: bool):
    """Import, build the gate table and give one untimed warm-up verdict.

    Returns the runner and the set-up time scaled to the reference
    machine speed.
    """
    warm = bench.request(-1)
    calibration.sample()  # the first run of the kernel pays its own set-up
    before = calibration.sample()
    start = time.perf_counter()
    runner = Runner(bench.name, root, in_process)
    loaded = time.perf_counter() - start
    took, verdict = timed_verdict(bench, warm, runner.run)
    elapsed = loaded + took  # the judging of the warm-up is not set-up
    if verdict.status == wl.WRONG:
        raise SystemExit(f"perfbench: warm-up verdict is wrong: {verdict.detail}")
    return runner, calibration.scale(elapsed, before, calibration.sample())


def fresh_setup_times(args, root: Path) -> list[float]:
    times = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
            check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


class Tally:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.instructions = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.known: list[str] = []

    def add(self, req: wl.Request, elapsed: float, verdict: wl.Judgement,
            scaled: float | None = None) -> None:
        self.raw_times.append(elapsed)
        self.times.append(elapsed if scaled is None else scaled)
        self.instructions += req.instructions
        if verdict.status != wl.OK:
            self.failed += 1
            where = self.known if verdict.status == wl.KNOWN else self.wrong
            where.append(f"request {req.index}: {verdict.detail}")

    def report(self, name: str) -> None:
        attempted = len(self.times)
        print(f"{name}: {attempted} verdicts, {self.failed} failed"
              f" (failed_share {self.failed / attempted:.4f}); unscaled wall time"
              f" p50 {statistics.median(self.raw_times) * 1e3:.1f} ms,"
              f" total {sum(self.raw_times):.2f} s")
        if self.known:
            print(f"  {len(self.known)} known-defect failures, e.g. {self.known[0]}")
        for line in self.wrong[:5]:
            print(f"  WRONG {line}")


def measured_run(bench, runner: Runner, seconds: float, setup_s: float) -> dict:
    gc.collect()
    gc.freeze()
    tally = Tally()
    start = time.perf_counter()
    before = calibration.sample()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = i >= MIN_VERDICTS and i % bench.block == 0 and elapsed >= seconds
        if done or elapsed >= MAX_LOOP_SECONDS:
            break
        req = bench.request(i)
        took, verdict = timed_verdict(bench, req, runner.run)
        # Collect between verdicts, outside the timed region, so that each
        # verdict starts from the same collector state.
        gc.collect()
        after = calibration.sample()
        tally.add(req, took, verdict, calibration.scale(took, before, after))
        before = after
        i += 1
    who = resource.RUSAGE_CHILDREN if bench.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_ms_p50": (statistics.median(tally.times) * 1e3, "ms"),
        "verdict_ms_p90": (statistics.quantiles(tally.times, n=10)[8] * 1e3, "ms"),
        "gates_per_s": (tally.instructions / sum(tally.times), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    tally.report(bench.name)
    return result(tally, metrics)


def probe_cli(root: Path, env: dict) -> tuple[float, int]:
    """Fresh-process import time of gottesman.cli and whether a check
    run leaves numpy imported."""
    timing = ("import time; t = time.perf_counter(); import gottesman.cli;"
              " print((time.perf_counter() - t) * 1e3)")
    numpy = ("import sys, contextlib, io; from gottesman import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):"
             " cli.run(['check', 'circuits/ghz.qc'])\n"
             "print(int('numpy' in sys.modules))")

    def python(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT, check=True,
        ).stdout.split()[-1]

    import_ms = statistics.median(float(python(timing)) for _ in range(IMPORT_PROBES))
    return import_ms, int(python(numpy))


def traced_run(bench, runner: Runner, root: Path) -> dict:
    import_ms, numpy_loaded = probe_cli(root, runner.env)
    count = -(-TRACED_MIN // bench.block) * bench.block
    gc.collect()
    gc.freeze()
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(count):
            req = bench.request(i)
            tally.add(req, *timed_verdict(bench, req, runner.run))
            gc.collect()
    finally:
        tracer.uninstall()
    traced = sum(tally.times)
    # Tracing overhead: the next block of requests, untraced.
    untraced = 0.0
    for i in range(count, 2 * count):
        untraced += timed_verdict(bench, bench.request(i), runner.run)[0]
        gc.collect()

    calls, self_time = tracer.calls, tracer.self_time
    correct = True
    if bench.name != "cli":
        want = sum(bench.request(i).apply_calls for i in range(count))
        got = calls.get("gates.apply_gate", 0)
        if got != want:
            print(f"  WRONG gates.apply_gate.calls {got}, the requests imply {want}")
            correct = False

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced

    metrics = {
        "gates.apply_gate.calls": (calls.get("gates.apply_gate", 0), "count"),
        "pauli.string_mul.calls": (calls.get("pauli.string_mul", 0), "count"),
        "pauli.commutes.calls": (calls.get("pauli.commutes", 0), "count"),
        "stabilizer.canonicalize.calls": (calls.get("stabilizer.canonicalize", 0), "count"),
        "stabilizer.measure.calls": (calls.get("stabilizer.measure", 0), "count"),
        "stabilizer.measure.row_ops": (tracer.row_ops, "count"),
        "stabilizer.member.calls": (calls.get("stabilizer.member", 0), "count"),
        "typesys.StabType.calls": (calls.get("typesys.StabType", 0), "count"),
        "cli.parse.calls": (calls.get("cli.parse", 0), "count"),
        "gates.derive_gate.calls": (calls.get("gates.derive_gate", 0), "count"),
        "oracle.unitary_of.calls": (calls.get("oracle.unitary_of", 0), "count"),
        "cli.numpy_loaded": (numpy_loaded, "count"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.verdict_s": (traced, "s"),
        "trace.overhead": (traced / untraced, "ratio"),
        "trace.unattributed_pct": (pct(traced - tracer.top_level), "%"),
        "checker.check.pct": (pct(tracer.inclusive.get("checker.check", 0.0)), "%"),
        "checker.infer_tableau.pct":
            (pct(tracer.inclusive.get("checker.infer_tableau", 0.0)), "%"),
    }
    for name in ("gates.apply_gate", "stabilizer.canonicalize", "stabilizer.measure",
                 "stabilizer.member", "typesys.StabType", "typesys.normalize",
                 "typesys.factor_separable", "typesys.parse_qtype", "cli.parse",
                 "oracle.unitary_of", "oracle.verify_conjugation",
                 "oracle.transport_residual", "oracle.verify_separability"):
        metrics[f"{name}.self_pct"] = (pct(self_time.get(name, 0.0)), "%")
    tally.report(bench.name + " (traced)")
    return result(tally, metrics, correct)


def result(tally: Tally, metrics: dict, correct: bool = True) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:14.6g} {unit}")
    return {
        "correct": correct and not tally.wrong,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def checkout_problem(root: Path, workload: str) -> str:
    if not (root / "src" / "gottesman" / "__init__.py").is_file():
        return "no src/gottesman here; run from the root of a checkout"
    if workload == "cli" and not (root / "circuits").is_dir():
        return "no circuits/ directory here"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one fresh set-up and print it (used internally)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = checkout_problem(root, args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # One CPU for the run and its children: the calibration kernel then
    # measures the CPU that the verdicts run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    compileall.compile_dir(root / "src", quiet=1)
    if not args.setup_only:
        print(f"python {platform.python_version()}, numpy {metadata.version('numpy')},"
              f" {os.cpu_count()} CPUs")
    in_process = args.workload != "cli" or bool(args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = wl.WORKLOADS[args.workload](args.seed, root, workdir)
        if args.setup_only:
            _, setup_s = set_up(bench, root, in_process)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.workload == "cli":
            compared, skipped = bench.cross_check()
            print(f"cli: expected answers agree with the reference on {compared}"
                  f" of {compared + skipped} (the rest use non-Clifford gates)")
        if args.trace:
            runner, _ = set_up(bench, root, in_process)
            out = traced_run(bench, runner, root)
        else:
            setups = fresh_setup_times(args, root)
            runner, setup_s = set_up(bench, root, in_process)
            setups.append(setup_s)
            out = measured_run(bench, runner, args.seconds, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
