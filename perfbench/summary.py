#!/usr/bin/env python3
"""Repeat-run summary of the end-to-end benchmark.

    python3 perfbench/summary.py [--runs 10] [--save FILE] [--compare FILE]

For every workload in BENCHMARK.json it makes two sets of --runs runs of
perfbench/run.py --trace 0, each run_seconds long:

  seeds      seeds 1..runs, one run each, as a harness that draws a new
             seed per run sees them: input differences (dataset, market,
             churn schedule) plus run-to-run noise;
  same-seed  seed 1 (the pinned seed) every time: run-to-run noise alone.

For each set it prints every metric's median, quartiles (Python's
statistics.quantiles(values, n=4)) and spread, (q3 - q1) / median. Every
end-to-end spread, setup_s included, is checked against the metric's
bound in BENCHMARK.json: it must not exceed the bound, and it is steady
when below a third of it. --save writes the raw values as JSON; --compare
reads such a file from an earlier set of runs and checks that no median
got worse than the earlier one by more than the bound. Exits non-zero
when a run fails or a check does not hold.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values, units, e2e, earlier):
    """Prints one set's table; returns False when a check does not hold."""
    ok = True
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  check")
    for name, vals in values.items():
        q1, median, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(median) if median else 0.0
        check = ""
        if name in e2e:
            bound = e2e[name]["bound"]
            if spread < bound / 3:
                check = f"steady (< {bound / 3:.4f})"
            elif spread <= bound:
                check = f"within bound {bound:g}, not below a third"
            else:
                check = f"SPREAD ABOVE BOUND {bound:g}"
                ok = False
            before = earlier.get(name)
            if before:
                _, median_before, _ = quartiles(before)
                worse = (median - median_before) / abs(median_before)
                if e2e[name]["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
                check += f"; vs earlier {worse:+.4f} {verdict}"
        print(f"  {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  "
              f"{units[name]:8} {check}")
    return ok


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Repeat-run summary of perfbench")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(pathlib.Path(args.compare).read_text()) if args.compare else {}
    ok = True
    saved = {}
    for workload in (w["name"] for w in bench["workloads"]):
        saved[workload] = {}
        for label, seeds in (("seeds", range(1, args.runs + 1)), ("same-seed", [1] * args.runs)):
            values = {}
            units = {}
            for seed in seeds:
                code, result = run_once(workload, seed, seconds)
                if code != 0 or result is None or not result["correct"]:
                    print(f"{workload} {label} seed {seed}: run FAILED (exit {code})")
                    ok = False
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"{workload} {label} seed {seed}: ok", flush=True)
            saved[workload][label] = values
            print(f"\n{workload}, {label}: {len(seeds)} runs of {seconds} s")
            ok &= summarize(values, units, e2e, earlier.get(workload, {}).get(label, {}))
            print(flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
