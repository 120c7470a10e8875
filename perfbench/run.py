#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result line last.

    python3 perfbench/run.py --workload kernels|remap|remap-par|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The first run builds
perfbench/main.exe (and the libraries it links) from source with dune
into .bench_build/; later runs reuse that build.  The executable prints a
human-readable table and then one JSON result line; this launcher adds
the process's peak resident set size (``peak_rss_mb``, from wait4) to
the end-to-end metrics, checks that the metric names are exactly those
BENCHMARK.json declares for the mode, and prints the final JSON line.

Exit status is non-zero, with no result line, when the sources are
missing or do not build, when the executable fails or overruns its time
limit, or when the emitted names do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# The executable must finish well inside the 180 s allowed for a run.
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(BUILD_DIR, "xdg-cache"),
    )
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "-j", "2",
         "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}, [
        w["name"] for w in bench["workloads"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    build()
    names, workloads = declared(a.trace)
    if a.workload not in workloads:
        fail("unknown workload %r (BENCHMARK.json has %s)" % (a.workload, workloads))

    p = subprocess.Popen(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_LIMIT_S, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("workload run failed (exit %d)" % p.returncode)

    result = json.loads(lines[-1])
    if not a.trace:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        fail("emitted metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
