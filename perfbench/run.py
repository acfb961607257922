#!/usr/bin/env python3
"""Run one workload of the dualrad benchmark.

    python3 perfbench/run.py --workload campaign-mix --seed 7 --seconds 15 --trace 0

Run from the repository root. The script builds dualrad_bench (perfbench/bench.cpp)
together with the dualrad library and the dualrad_serve tool from source, in
$CARGO_TARGET_DIR (default .bench_build), runs the workload, and prints:

  # detail {...}   every metric's median and quartiles over the run's repeats,
                   the gate's findings and the export digest
  # machine {...}  nproc, CPU model, compiler, build type and flags, commit
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}   (last line)

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones. Each run also appends its full record to
.bench_out/results.jsonl. The exit status is non-zero when the build fails,
the correctness gate trips, or the run overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine-1m", "campaign-mix", "serve-short", "audited")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def scratch_env(out):
    """The environment for the build and dualrad_bench: temporary files (the
    compiler's among them) stay inside the build directory."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out):
    """Configure (once) and build dualrad_bench; returns False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=scratch_env(out), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def cmake_cache(out):
    cache = {}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over the sources the benchmark builds, so results compare by
    content when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def machine(out):
    cache = cmake_cache(out)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
                     if x)
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": build_type, "flags": flags, "commit": commit,
            "source_sha256": source_digest()}


def run_bench(cmd, env):
    """Run dualrad_bench in its own process group; kill the group on overrun."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"dualrad_bench overran {RUN_TIMEOUT_S} s")
        return None, 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return stdout, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small grids (the benchmark's own test)")
    parser.add_argument("--tamper", choices=("row", "serve"),
                        help="corrupt an export to exercise the gate")
    args = parser.parse_args()

    out = build_dir()
    started = time.monotonic()
    if not build(out):
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    run_dir = os.path.join(".bench_out", args.workload + ("-t" if args.trace else ""))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    cmd = [os.path.join(out, "dualrad_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-bin={os.path.join(out, 'dualrad_serve')}",
           f"--out={run_dir}",
           f"--digests={os.path.join(HERE, 'digests.txt')}"]
    if args.reduced:
        cmd.append("--reduced")
    if args.tamper:
        cmd.append(f"--tamper={args.tamper}")
    stdout, code = run_bench(cmd, scratch_env(out))
    lines = (stdout or "").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"dualrad_bench exited {code} without a result")
        return code or 1

    record = {"machine": machine(out), "result": result}
    for line in lines[:-1]:
        if line.startswith("# detail "):
            record["detail"] = json.loads(line[len("# detail "):])
        print(line)
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print(lines[-1], flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
