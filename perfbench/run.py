#!/usr/bin/env python3
"""Build and run the cedarsim benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (cedarbench plus the
simulator libraries it calls, compiled from src/) into .bench_build/;
later calls rebuild only what changed. Each call then runs one workload
in one single-threaded process. The last line on stdout is the result
JSON; build output goes to stderr.

--selftest proves the output checks catch errors: it runs
paper32_kernels with gm.module_conflict_extra + 1 and
fabric2048_traffic with gm.crossbar_arb_cycles + 1, and requires every
perturbed unit to fail and every unperturbed unit to pass.

Extra arguments (--record, --perturb KNOB) go to cedarbench unchanged.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper32_kernels", "fabric2048_traffic", "livepoint_windows",
             "scaled512_kernels")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    """Configure (once) and build cedarbench; returns its path or None."""
    cmake_dir = os.path.join(build_root(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", cmake_dir, "-j4", "--target",
                        "cedarbench"], BUILD_TIMEOUT_S):
        return None
    return os.path.join(cmake_dir, "cedarbench")


def child_env():
    # Environment switches that arm profiling or debug output inside the
    # simulator would change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("CEDAR_")}


def run_bench(binary, args, capture):
    """Run cedarbench; returns (exit code, stdout text or None)."""
    cmd = [binary, "--expected", os.path.join(HERE, "expected.txt")] + args
    try:
        done = subprocess.run(cmd, env=child_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: cedarbench exceeded its time limit", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def selftest(binary):
    """Unperturbed runs must pass every unit; perturbed ones fail every unit."""
    cases = [
        ("paper32_kernels", None, "pass"),
        ("paper32_kernels", "gm.module_conflict_extra", "fail"),
        ("fabric2048_traffic", None, "pass"),
        ("fabric2048_traffic", "gm.crossbar_arb_cycles", "fail"),
    ]
    ok = True
    for workload, knob, want in cases:
        args = ["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", "0"]
        if knob:
            args += ["--perturb", knob]
        code, out = run_bench(binary, args, capture=True)
        if code != 0 or not out:
            print(f"selftest: {workload} exited {code}")
            ok = False
            continue
        result = json.loads(out.strip().splitlines()[-1])
        attempted, failed = result["attempted"], result["failed"]
        good = failed == 0 if want == "pass" else failed == attempted > 0
        ok = ok and good
        print(f"selftest: {workload:<20} perturb={knob or 'none':<26} "
              f"units_attempted={attempted} units_failed={failed} "
              f"expect={want} -> {'ok' if good else 'WRONG'}")
    print("selftest:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    opts, extra = parser.parse_known_args()
    if opts.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if opts.selftest:
        return selftest(binary)
    if opts.workload is None and "--record" not in extra:
        parser.error("--workload is required")

    args = ["--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", opts.trace] + extra
    if opts.workload:
        args += ["--workload", opts.workload]
    if opts.trace == "1" and opts.workload:
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(
            spans_dir, f"{opts.workload}-seed{opts.seed}.json")]
    code, _ = run_bench(binary, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
