#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <expert|auto-accept|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
rudolf library and the benchmark driver into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later runs rebuild only what
changed. Build output goes to stderr. The driver's standard output is passed
through; its last line is the run's JSON result. Exits non-zero, without a
result, when the sources are missing or the build or the run fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: rudolf sources not found next to perfbench/", file=sys.stderr)
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1

    args = list(argv)
    if "--trace" in args and args.index("--trace") + 1 < len(args):
        if args[args.index("--trace") + 1] == "1":
            workload = "run"
            if "--workload" in args and args.index("--workload") + 1 < len(args):
                workload = args[args.index("--workload") + 1]
            args += ["--trace-out", os.path.join(out, f"spans_{workload}.jsonl")]
    # The program reads RUDOLF_* knobs from the environment; the benchmark
    # fixes its own configuration, so none of them may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RUDOLF_")}
    try:
        r = subprocess.run([binary] + args + ["--commit", source_id()], env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
