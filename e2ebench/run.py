#!/usr/bin/env python3
"""Build and run the end-to-end repair benchmark (see README.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the repository's libraries and the
e2ebench binary from source (Release) under .bench_build/e2ebench, runs
one workload, passes the binary's report through, and ends stdout with
one JSON line {correct, attempted, failed, metrics} whose metrics are
the end_to_end (--trace 0) or per_layer (--trace 1) names listed in
BENCHMARK.json. Exit status: 0 every check passed; 1 a check failed;
2 the sources, the build or BENCHMARK.json are missing or broken; 3 the
binary overran its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(".bench_build", "e2ebench-results")
BUILD_JOBS = 2
BINARY_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "e2ebench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "e2ebench")


def source_id():
    """A git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip()[:12] + " " + ident
    return ident


def wanted_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric list from BENCHMARK.json: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    names = wanted_metrics(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop_binary(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_binary)
    signal.signal(signal.SIGINT, stop_binary)
    try:
        stdout, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("e2ebench exceeded %d s" % BINARY_TIMEOUT_S, 3)

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
        metrics = report["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        if lines:
            print(lines[-1])
        fail("e2ebench exited %d without a report" % proc.returncode,
             proc.returncode or 2)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("e2ebench did not report " + ", ".join(missing))
    report["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(report))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
