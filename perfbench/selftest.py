#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. an untraced and a traced run at --tiny sizes exit 0, report correct,
     and print every end-to-end (resp. per-layer) metric that
     BENCHMARK.json names, each with the unit BENCHMARK.json gives it;
  2. a run checked against a freshly pinned reference passes, and the
     same run against a copy of the pin with one digest perturbed is
     reported as failed (correct false, failed > 0, non-zero exit).
Then checks that a tree holding only BENCHMARK.json and perfbench/ exits
non-zero without printing a result. Exits non-zero if any check fails.
"""
import json
import pathlib
import shutil
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORK = ROOT / ".bench_build" / "selftest"
TINY = ["--tiny"]


def run(args, cwd=ROOT, script=PERFBENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "0.5"]
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = run(base + ["--trace", trace] + TINY)
            check(code == 0 and result is not None and result["correct"]
                  and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} --trace {trace}: exit 0 and correct")
            reported = result["metrics"] if result else {}
            for metric in bench[section]:
                got = reported.get(metric["name"])
                check(got is not None and got.get("unit") == metric["unit"]
                      and isinstance(got.get("value"), (int, float)),
                      f"{workload} --trace {trace}: {metric['name']} reported in {metric['unit']}")

        pin = WORK / f"{workload}.pin"
        code, _ = run(base + ["--trace", "0", "--write-reference", str(pin)] + TINY)
        check(code == 0 and pin.is_file(), f"{workload}: reference pinned")
        code, result = run(base + ["--trace", "0", "--reference", str(pin)] + TINY)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: run matches its own pin")

        lines = pin.read_text().splitlines()
        fields = lines[-1].split()
        digest = fields[-1]
        fields[-1] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        lines[-1] = " ".join(fields)
        perturbed = WORK / f"{workload}.perturbed.pin"
        perturbed.write_text("\n".join(lines) + "\n")
        code, result = run(base + ["--trace", "0", "--reference", str(perturbed)] + TINY)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{workload}: perturbed pin reported as failure")

    bare = WORK / "bare"
    shutil.copytree(PERFBENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, script=bare / "perfbench" / "run.py")
    check(code != 0 and result is None, "tree without sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
