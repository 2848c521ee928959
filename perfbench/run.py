#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The harness (perfbench/perfbench.ml)
is built from source with dune into .bench_build/, and every file a
run writes stays under .bench_build/. The last line of standard output
is the harness's JSON result. Any failure to build or run exits
non-zero without printing a result.

--self-test runs each workload at a tiny length, untraced and traced,
checks that every metric listed in BENCHMARK.json is printed with its
unit, then runs report-warm against a copy of the goldens with one
golden corrupted and checks that the output check counts a failed op.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["report-cold", "report-warm", "serve-mixed"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def clean_env():
    """The caller's environment minus every REPRO_* override, so each
    workload runs the program's default toggles."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def build():
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR),
           "--cache=disabled", "--display=quiet", "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        sys.stderr.write(proc.stdout[-4000:])
        sys.exit("perfbench: build failed")


def run_harness(args):
    """Run the harness in its own process group; return its stdout
    lines, or exit non-zero if it fails or overruns."""
    cmd = [os.path.join(ROOT, EXE)] + args + ["--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run timed out")
    finally:
        # Dispatch workers and fill children are the harness's; none may
        # outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return lines, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            lines, result = run_harness(["--workload", workload, "--seed", "1",
                                         "--seconds", "0", "--trace", trace])
            for line in lines[:-1]:
                if line.startswith("metric "):
                    print(f"{workload} trace={trace} {line}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"FAIL {workload} trace={trace}: correct={result['correct']}"
                      f" missing={sorted(set(want) - set(got))}"
                      f" extra={sorted(set(got) - set(want))}")
                ok = False
    # A corrupted golden must fail the output check and count a failed op.
    goldens = os.path.join(WORK_DIR, "corrupt-goldens")
    shutil.rmtree(os.path.join(ROOT, goldens), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "test", "golden"), os.path.join(ROOT, goldens))
    with open(os.path.join(ROOT, goldens, "fig5.expected"), "a") as f:
        f.write("corrupted\n")
    _, result = run_harness(["--workload", "report-warm", "--seed", "1",
                             "--seconds", "0", "--trace", "0",
                             "--golden-dir", goldens])
    shutil.rmtree(os.path.join(ROOT, goldens), ignore_errors=True)
    if result["correct"] or result["failed"] < 1:
        print(f"FAIL corrupted golden not detected: {result}")
        ok = False
    else:
        print(f"corrupted golden detected: failed={result['failed']}"
              f" of attempted={result['attempted']}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.self_test:
        return self_test()
    lines, _ = run_harness(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", a.trace])
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
