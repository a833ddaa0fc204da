"""Benchmark of the seiar CLI: one workload per run, checked outputs, one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 20 --trace 0

The run pins itself to one core with single-threaded BLAS, writes its inputs
under ``.perfbench/`` in the checkout, times a fresh interpreter's start-up
(``setup_s``; with ``--trace 1`` the import times from ``python -X
importtime`` instead), runs one untimed warm-up round of the workload's
subcommands through ``seiar.cli.main``, then repeats whole rounds until
``--seconds`` have passed.  Times are in reference seconds (``gauge.py``).
Every output is checked against the independent reference in
``reference.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` each round also runs once
under the tracer, and the metrics are the per-layer ones.  Diagnostics go
to standard error.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread per process, set before numpy loads: an idle BLAS pool spinning
# on the second core slows the first on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
COMMANDS = ("fit", "predict", "simulate", "sweep", "stability")

_SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import seiar.cli; "
    "seiar.cli.load_config(sys.argv[2])")
_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_core() -> None:
    """Keep this process, its children and the gauge on one core, so the
    gauge reads the speed of the core the program runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(src: Path, config: Path, meter: gauge.Gauge) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    seiar.cli and loading ``config``."""
    argv = [sys.executable, "-c", _SETUP_SNIPPET, str(src), str(config)]
    times = [meter.time_child(lambda: subprocess.run(argv, check=True))[1]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def measure_imports(src: Path) -> tuple[float, float]:
    """Median cumulative import time (s) of seiar.cli and of scipy.optimize,
    from ``python -X importtime``."""
    cli, optimize = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import seiar.cli", str(src)],
            check=True, capture_output=True, text=True)
        total = scipy_optimize = 0.0
        for cumulative, indent, module in _IMPORTTIME.findall(proc.stderr):
            if not indent and (module == "seiar" or module.startswith("seiar.")):
                total += int(cumulative) * 1e-6
            if module == "scipy.optimize":
                scipy_optimize = int(cumulative) * 1e-6
        cli.append(total)
        optimize.append(scipy_optimize)
    return statistics.median(cli), statistics.median(optimize)


class Runner:
    """Runs operations through the CLI, checks them and keeps the tallies."""

    def __init__(self, cli_main, meter: gauge.Gauge):
        self.cli_main = cli_main
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.checked: dict[str, tuple[dict[str, bytes], list[str]]] = {}

    def run_round(self, ops) -> tuple[float, float, dict[str, list[float]]]:
        """Time of the round's commands in reference seconds and in wall
        seconds, and each command's call times in reference seconds."""
        wall = raw = 0.0
        per_command: dict[str, list[float]] = {}
        for op in ops:
            code, elapsed, scaled = self.meter.time_call(self.cli_main, op.argv)
            wall += scaled
            raw += elapsed
            per_command.setdefault(op.command, []).append(scaled)
            self._check(op, code)
        return wall, raw, per_command

    def _check(self, op, code: int) -> None:
        self.attempted += 1
        first_time = op.label not in self.checked
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            # the same inputs must give the same bytes every round; identical
            # bytes were checked in the first round
            files = {p.name: p.read_bytes() for p in sorted(op.out.iterdir())}
            if first_time:
                self.checked[op.label] = (files, self._run_check(op))
            first, problems = self.checked[op.label]
            if files != first:
                problems = ["output differs byte for byte from the first round's"]
        if not problems:
            return
        self.failed += 1
        if op.known_fault is None:
            self.unexpected.append(op.label)
            kind = "FAIL"
        elif first_time:
            kind = f"KNOWN FAULT ({op.known_fault})"
        else:
            return
        for problem in problems:
            print(f"{kind} {op.label}: {problem}", file=sys.stderr)

    @staticmethod
    def _run_check(op) -> list[str]:
        try:
            return op.check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]


def _traced_round(runner: Runner, ops) -> tuple[float, dict[str, float]]:
    """Run ``ops`` once under a fresh tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, _, _ = runner.run_round(ops)
    finally:
        tracer.uninstall()
    return wall, tracing.per_layer(tracer.spans)


def run(args: argparse.Namespace, root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        meter = gauge.Gauge()
        if args.trace:
            import_s, optimize_s = measure_imports(src)
        else:
            setup_s = measure_setup(src, workload.setup_config, meter)
        import seiar.cli

        runner = Runner(seiar.cli.main, meter)
        runner.run_round(workload.ops)  # warm-up, checked against the reference
        walls, raw_walls, ratios, layers = [], [], [], []
        calls: dict[str, list[float]] = {c: [] for c in COMMANDS}
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            # traced and untraced passes alternate which goes first
            if args.trace and rounds % 2:
                traced_wall, layer = _traced_round(runner, workload.ops)
            wall, raw, per_command = runner.run_round(workload.ops)
            if args.trace and not rounds % 2:
                traced_wall, layer = _traced_round(runner, workload.ops)
            walls.append(wall)
            raw_walls.append(raw)
            for command, times in per_command.items():
                calls[command].append(statistics.fmean(times))
            if args.trace:
                ratios.append(traced_wall / wall)
                layers.append(layer)
                if any(layer[k] != layers[0][k] for k in tracing.COUNTS):
                    runner.unexpected.append("traced counts differ between rounds")
            rounds += 1

        if args.trace:
            metrics = {"setup.import_s": (import_s, "s"),
                       "setup.import_scipy_optimize_s": (optimize_s, "s")}
            for key in layers[0]:
                value = layers[0][key] if key in tracing.COUNTS else \
                    statistics.median(m[key] for m in layers)
                metrics[key] = (value, tracing.UNITS.get(key, "s"))
            for command in COMMANDS:
                times = calls[command]
                metrics[f"cli.{command}_s"] = (statistics.median(times) if times else 0.0, "s")
            metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
            metrics["gauge.kernel_ms"] = (meter.median_ms(), "ms")
            metrics["gauge.raw_wall_s"] = (statistics.median(raw_walls), "s")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        print(f"{args.workload} seed {args.seed}: {rounds} timed rounds, {runner.attempted} "
              f"operations, {runner.failed} failed; round times "
              + " ".join(f"{w:.3f}" for w in walls) + " reference s, "
              + " ".join(f"{w:.3f}" for w in raw_walls) + " wall s; kernel "
              + f"{meter.median_ms():.3f} ms"
              + "".join(f"; {c} {statistics.median(t):.4f} s" for c, t in calls.items() if t),
              file=sys.stderr)
        return {
            "correct": not runner.unexpected,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "seiar" / "cli.py").is_file():
        print(f"perfbench: {root} holds no seiar source tree (src/seiar/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    pin_to_one_core()
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
