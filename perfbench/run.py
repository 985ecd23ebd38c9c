#!/usr/bin/env python3
"""Host-time benchmark of the dRAID simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and with it the simulator
library) in Release mode under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Build logs and a human-readable report go to stderr.

Determinism guard: the simulated results of a run (per-system simulated
MB/s and p99, event, message, SSD I/O and span counts, failed ops) are
stored per (binary, workload, seed, seconds). A later run of the same
binary and inputs, traced or not, must reproduce them exactly, or it is
reported as not correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and build; returns the binary path or None."""
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "draid_perfbench")


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def guard(bdir, binary, args, fingerprint):
    """Compare the run's simulated results with an earlier identical run."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    key = "%s-%s-seed%d-%ds" % (h.hexdigest()[:16], args.workload,
                                args.seed, args.seconds)
    store = os.path.join(bdir, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != fingerprint:
            log("perfbench: simulated results differ from an earlier run "
                "of the same binary and inputs:")
            log("  earlier:", json.dumps(earlier, sort_keys=True))
            log("  now:    ", json.dumps(fingerprint, sort_keys=True))
            return False
        return True
    tmp = path + ".tmp%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(fingerprint, f, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: benchmark exited with", proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    names = declared_metrics(bool(args.trace))
    if sorted(names) != sorted(report["metrics"]):
        log("perfbench: metrics do not match BENCHMARK.json:",
            sorted(set(names) ^ set(report["metrics"])))
        return 1
    deterministic = guard(bdir, binary, args, report["fingerprint"])
    print(json.dumps({
        "correct": bool(report["complete"]) and deterministic,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
