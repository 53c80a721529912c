#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark program mgbench (RelWithDebInfo, the top-level
default) into .bench_build/; later runs rebuild incrementally. Build
output goes to standard error, so the last line of standard output is
mgbench's JSON result. mgbench then replaces this process, so the
measured program is one single-threaded process.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds mgbench; returns its path."""
    cached = cached_source_dir()
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)  # A build tree of another checkout.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("run.py: configuring the benchmark failed")
    if subprocess.run(["cmake", "--build", BUILD, "--target", "mgbench",
                       "-j", "4"], stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(BUILD, "mgbench")


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    binary = build()
    args = [binary] + sys.argv[1:]
    if known.trace == "1" and all(re.fullmatch(r"[A-Za-z0-9_]+", v)
                                  for v in (known.workload, known.seed)):
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%s.jsonl" % (known.workload, known.seed))]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
