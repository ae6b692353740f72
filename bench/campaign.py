"""Run every benchmark workload over several seeds and summarise the spread.

    python3 bench/campaign.py --seeds 0-9 --out bench/results/baseline.json

Each run is a fresh process (``bench/run.py``), one after the other, so a
workload's peak memory is its own and runs do not compete for CPUs.  For
every metric the summary gives the median of the runs and the distance
between the first and third quartile as a share of the median, which is
what the bounds in ``BENCHMARK.json`` are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range over the median), the spread the bounds limit."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                all_ok = False
                continue
            result = json.loads(lines[-1])
            detail = json.loads((ROOT / ".bench_work" / "results" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values.update({k: v for k, (v, _) in detail.get("named_metrics", {}).items()})
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "values": values, "failures": detail["failures"],
                         "environment": detail["environment"]})
            all_ok &= result["correct"]
            print(f"{workload} seed {seed}: correct {result['correct']} error_rate="
                  f"{result['failed'] / result['attempted']:.3g} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
            for reason in detail["failures"]:
                print(f"  FAILED {reason}")
        if not runs:
            continue
        table = {}
        for name in runs[0]["values"]:
            vals = [r["values"][name] for r in runs]
            med, rel = spread(vals)
            bound = bounds.get(name)
            table[name] = {"median": med, "iqr_over_median": rel, "bound": bound,
                           "values": vals}
            mark = ""
            if bound is not None:
                mark = "ok" if rel <= bound / 3 else ("within bound" if rel <= bound
                                                      else "OVER BOUND")
                if rel > bound:
                    all_ok = False
            print(f"  {workload:17s} {name:24s} median {med:12.6g}  "
                  f"IQR/median {rel:7.4f}  {mark}")
        summary["workloads"][workload] = {"metrics": table, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
