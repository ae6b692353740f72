"""Run one storyeval benchmark workload and print its metrics.

    python3 bench/run.py --workload train_joint --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout: the package is imported from
``src/`` next to this directory, and nothing is installed.  Each workload
is a closed loop with one client: the next CLI command starts when the
previous one has finished.  The loop repeats the workload's command
cycle until the cycles have taken ``--seconds`` (default: ``run_seconds``
in ``BENCHMARK.json``).  Set-up runs once before the loop and is timed
again, for at least 1 s, before each untraced cycle; ``setup_s`` is the
median of all set-ups, at least five.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, runs at least three of each, and reports
per-layer metrics from the traced ones.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# pinned before numpy loads: with 2 CPUs, 2 BLAS threads made batch-64
# ranking no faster, and one thread keeps runs comparable
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up is timed again for at least SETUP_SLICE_S before each untraced
# cycle, and at least SETUP_MIN_REPEATS times in all: the host's speed
# shifts by up to 40 % for tens of seconds at a time, and set-ups spread
# over the run sample those shifts as the cycles do; five short set-ups in
# a row (0.3 s each for aspect_discovery) often all fall in one
SETUP_MIN_REPEATS = 5
SETUP_SLICE_S = 1.0
TRACED_MIN_CYCLES = 3
SOURCE_MISSING = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_joint", "infer_long", "aspect_discovery"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "storyeval").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unavailable (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def call_cli(cli, argv: list[str], tracer=None) -> tuple[int, float]:
    """Run one CLI command in-process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, code: int, check) -> None:
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{name}: exit code {code}")
            return
        try:
            errors = check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"{name}: output unreadable: {type(exc).__name__}: {exc}"]
        if errors:
            self.failures.append("; ".join(errors))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "storyeval" / "cli.py").is_file():
        print(f"error: no storyeval source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return SOURCE_MISSING
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from storyeval import cli

    import spans
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != (SRC / "storyeval").resolve():
        print(f"error: imported storyeval from {cli.__file__}, not {SRC}", file=sys.stderr)
        return SOURCE_MISSING

    env = environment()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    try:
        setup_times = []

        def set_up(keep: bool = False):
            """Time one set-up in a fresh directory; returns its workload."""
            fresh = WORKLOADS[args.workload]()
            inputs = run_dir / f"setup{len(setup_times)}"
            start = time.perf_counter()
            inputs.mkdir()
            for argv_ in fresh.setup(inputs, args.seed):
                code, _ = call_cli(cli, argv_)
                tally.record(f"setup {argv_[0]}", code, lambda: [])
            setup_times.append(time.perf_counter() - start)
            if not keep:
                shutil.rmtree(inputs)
            return fresh

        # the cycles run on the first set-up; the later ones are only timed
        workload = set_up(keep=True)

        # -- timed closed loop -----------------------------------------------------------
        tracer = spans.Tracer() if args.trace else None
        per_command: dict[str, list[float]] = {}
        work: dict[str, list[float]] = {}
        cycles = {False: [], True: []}
        while True:
            traced = bool(args.trace) and len(cycles[False]) > len(cycles[True])
            if traced:
                tracer.install()
            elif not args.trace:
                begin = len(setup_times)
                while not tally.failures and sum(setup_times[begin:]) < SETUP_SLICE_S:
                    set_up()
            cycle_s = 0.0
            try:
                for cmd in workload.commands():
                    code, dt = call_cli(cli, cmd.argv, tracer if traced else None)
                    cycle_s += dt
                    tally.record(cmd.name, code, cmd.check)
                    if not traced and code == 0:
                        per_command.setdefault(cmd.name, []).append(dt)
                        work.setdefault(cmd.name, []).append(cmd.work())
            finally:
                if traced:
                    tracer.remove()
            cycles[traced].append(cycle_s)
            # stop when the next cycle would end more than half a cycle late,
            # so the cycles last about --seconds whatever their length
            projected = sum(cycles[False]) + sum(cycles[True]) + cycle_s / 2
            if projected >= args.seconds and (
                    not args.trace or len(cycles[True]) >= TRACED_MIN_CYCLES):
                break
        while not args.trace and not tally.failures and len(setup_times) < SETUP_MIN_REPEATS:
            set_up()

        for cmd in workload.oracle():
            code, _ = call_cli(cli, cmd.argv)
            tally.record(cmd.name, code, cmd.check)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s_each": setup_times,
              "cycles": len(cycles[False]), "traced_cycles": len(cycles[True]),
              "command_s": per_command, "failures": tally.failures,
              "observed": workload.state.get("observed", {})}
    print(f"storyeval benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    named = named_metrics(args.workload, per_command, work)
    if args.trace:
        layer, absent = spans.layer_metrics(tracer, cycles[False], cycles[True])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["absent"] = absent
        print(f"traced {len(cycles[True])} cycle(s), untraced {len(cycles[False])}; "
              f"{len(tracer.spans)} spans")
        print("absent (not present or not called): " + (", ".join(absent) or "none"))
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cycle_s": {"value": statistics.median(cycles[False]), "unit": "s"},
        }
        report["named_metrics"] = named
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in named.items():
            print(f"  {name:40s} {value:.6g} {unit}")
    failed = len(tally.failures)
    print(f"  {'error_rate':40s} {failed / max(tally.attempted, 1):.6g} ratio "
          f"({failed} of {tally.attempted} operations failed)")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    report["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def named_metrics(workload: str, per_command: dict, work: dict) -> dict:
    """The workload's own rates: work done over the command's wall time."""

    def rate(cmd: str) -> float:
        rates = [w / t for w, t in zip(work.get(cmd, []), per_command.get(cmd, []))]
        return statistics.median(rates) if rates else 0.0

    def wall(cmd: str) -> float:
        return statistics.median(per_command[cmd]) if per_command.get(cmd) else 0.0

    if workload == "train_joint":
        return {"train_pairs_per_s": (rate("train"), "pairs/s")}
    if workload == "infer_long":
        return {"rank_stories_per_s": (rate("compare"), "stories/s"),
                "comment_tokens_per_s": (rate("score"), "tokens/s"),
                "evaluate_s": (wall("evaluate"), "s")}
    return {"lda_sweeps_per_s": (rate("extract-aspects"), "sweeps/s")}


if __name__ == "__main__":
    sys.exit(main())
