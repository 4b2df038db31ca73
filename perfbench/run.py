#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <ic_cpu|ic_remote_cache|service_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, then runs one workload in its own process so a
crash fails only that run. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A run that
crashes or times out is reported with correct=false and every batch it
attempted counted as failed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ic_cpu", "ic_remote_cache", "service_mixed")
# A run must finish within 180 s; leave room for an incremental build.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lotus_perfbench",
         "-j", str(os.cpu_count() or 2)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "lotus_perfbench")


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src" % root)
        return 1
    try:
        binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(root)]
    try:
        result = subprocess.run(command, cwd=root, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S, check=False)
        stdout, returncode, stderr = result.stdout, result.returncode, result.stderr
    except subprocess.TimeoutExpired as expired:
        stdout = expired.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        returncode, stderr = None, ""
    if stderr:
        sys.stderr.write(stderr)

    lines = stdout.splitlines()
    if returncode == 0 and lines and lines[-1].startswith("{"):
        print("\n".join(lines), flush=True)
        return 0

    # Crashed or timed out: every batch attempted so far fails.
    attempted = 0
    for line in lines:
        if line.startswith("# progress attempted="):
            attempted = int(line.split("=", 1)[1])
    attempted = max(1, attempted)
    body = [line for line in lines if not line.startswith("{")]
    body.append("# run %s; all %d attempted batches count as failed" % (
        "timed out" if returncode is None else "exited with %d" % returncode,
        attempted))
    body.append("# failed_frac = 1 ratio (%d of %d batches)" % (attempted,
                                                                attempted))
    print("\n".join(body), flush=True)
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted, "metrics": {}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
