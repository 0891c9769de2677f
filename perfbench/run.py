#!/usr/bin/env python3
"""Build (if needed) and run the delta-stream benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The library and the benchmark program are
compiled from source into .bench_build/perfbench (Release); build output
goes to stderr, so the last line of stdout is the program's JSON result.
The exit code is the program's: non-zero when an output check fails or the
build cannot run.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pigp_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next to "
                         "perfbench/; run from a full checkout\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def check_declared():
    """BENCHMARK.json must declare exactly the metrics the program reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [("end_to_end", m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared += [("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]]
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = [tuple(line.split()) for line in listed if line]
    ok = declared == reported
    print("  [%s] BENCHMARK.json declares the reported metrics and units"
          % ("ok" if ok else "FAIL"))
    if not ok:
        print("    declared-only: %s" % sorted(set(declared) - set(reported)))
        print("    reported-only: %s" % sorted(set(reported) - set(declared)))
    return ok


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    code = subprocess.run([BINARY] + sys.argv[1:]).returncode
    if "--selftest" in sys.argv[1:] and not check_declared():
        code = code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
