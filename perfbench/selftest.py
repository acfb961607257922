#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the repository root. It checks, on reduced grids at the default seed:
  * every workload emits every end-to-end metric of BENCHMARK.json with its
    unit (--trace 0) and every per-layer metric with its unit (--trace 1),
    with the gate holding;
  * the gate rejects a tampered export row (campaign-mix) and a serve export
    that differs from the batch export of the same grid (serve-short);
  * run.py fails without printing a result in a directory holding only
    BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def check(ok, what, proc=None):
    if ok:
        print(f"ok    {what}")
        return
    print(f"FAIL  {what}")
    if proc is not None:
        print(proc.stderr[-2000:])
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = ["--seed", "1", "--seconds", "1", "--reduced"]

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(["--workload", workload, "--trace", str(trace)] + base)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: gate holds", proc)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            check(set(metrics) == set(want), f"{what}: every {key} metric emitted")
            check(all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
                      for n, u in want.items()), f"{what}: units match BENCHMARK.json")

    proc, result = run(["--workload", "campaign-mix", "--trace", "0", "--tamper", "row"] + base)
    check(proc.returncode != 0 and result is not None and not result["correct"]
          and result["failed"] > 0, "gate rejects a tampered export row", proc)

    proc, result = run(["--workload", "serve-short", "--trace", "0", "--tamper", "serve"] + base)
    check(proc.returncode != 0 and result is not None and not result["correct"]
          and result["failed"] > 0, "gate rejects a serve export that differs from batch",
          proc)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc, result = run(["--workload", "campaign-mix", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env)
    check(proc.returncode != 0 and result is None,
          "fails without a result when the sources are absent", proc)
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
