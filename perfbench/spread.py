"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile distance as a share of the median.  The raw results are kept
in perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import sys

from run import HERE, RUN_SECONDS, run_workload


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args()
    results = []
    for seed in seed_list(args.seeds):
        result, record = run_workload(args.workload, seed, 0, args.seconds)
        results.append({**result, "record": record})
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {shown}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(json.dumps(results, indent=1))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {median:.4g}, quartiles {q1:.4g}..{q3:.4g}, spread {(q3 - q1) / median:.2%}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
