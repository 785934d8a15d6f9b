#!/usr/bin/env python3
"""Repository benchmark: builds flexvec-perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the FlexVec libraries plus the benchmark driver)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Later runs
rebuild only what changed.

Prints a human-readable table, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. perfbench/design.json records what each
metric means, which layer it measures, which end-to-end metric it should
move, and the default and held-out seeds.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BINARY = "flexvec-perfbench"
BASELINE = ROOT / "bench" / "BENCH_figure8.baseline.json"
# Units of the informational figures the program prints besides the
# declared metrics.
EXTRA_UNITS = {"failed_frac": "ratio", "passes": "count",
               "task_samples": "count", "wall_s_median_pass": "s",
               "trace.passes": "count"}


def fail(msg, code=2):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    """Loads BENCHMARK.json and design.json and checks they agree."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        design = json.loads((BENCH_DIR / "design.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot load the benchmark definition: {e}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    dup = sorted({n for n in names if names.count(n) > 1})
    if bad or dup:
        fail(f"bad metric/workload names {bad}, duplicates {dup}")
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    described = set(design["metrics"])
    if declared != described:
        fail("BENCHMARK.json and design.json list different metrics: "
             f"{sorted(declared ^ described)}")
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {w["name"]: w["why"] for w in design["workloads"]}:
        fail("BENCHMARK.json and design.json describe different workloads")
    return spec, design


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for need in (ROOT / "src" / "CMakeLists.txt", BASELINE):
        if not need.is_file():
            fail(f"{need.relative_to(ROOT)} is missing: run from a full "
                 "checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir.parent / "perfbench-build.log"
    steps = [["cmake", "--build", str(bdir), "-j",
              str(min(4, os.cpu_count() or 1)), "--target", BINARY]]
    if not (bdir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return bdir / BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, design = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    seed = design["seeds"]["default"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seed < 0 or seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    spans = build_dir().parent / f"spans-{args.workload}.csv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--baseline", str(BASELINE), "--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=min(170, 3 * seconds + 60), text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    if proc.returncode != 0:
        fail(f"{BINARY} exited with {proc.returncode}", 1)
    try:
        raw = json.loads(proc.stdout)
    except ValueError:
        fail(f"{BINARY} printed no result", 1)

    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"])
                 for m in spec["end_to_end"] + spec["per_layer"])
    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = raw["metrics"]
    missing = [m["name"] for m in want if m["name"] not in got]
    errors = raw["errors"] + [f"metric {n} not reported" for n in missing]

    print(f"perfbench {args.workload} seed={seed} seconds={seconds} "
          f"trace={args.trace} ({time.monotonic() - start:.1f}s)")
    for name in sorted(got):
        print(f"  {name:34s} {got[name]:>18.6g} {units.get(name, '')}")
    for e in errors:
        print(f"  ERROR: {e}")
    result = {
        "correct": bool(raw["ok"]) and not missing,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                    for m in want if m["name"] in got},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
