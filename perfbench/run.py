#!/usr/bin/env python3
"""The repository benchmark: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload offline_highcard --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds calib and the perfbench workload binary
from source into .bench_build/ (first call only), generates the workload's
inputs from --seed, runs the workload for --seconds, and prints as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The line
before it is the binary's full report (BENCH-style JSON with provenance and
sample counts). Exits non-zero, without a result line, when the build or the
workload fails. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"  # relative: it also holds the daemon's unix socket
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("offline_paradis", "offline_highcard", "live_exact", "runtime_event")
OFFLINE = ("offline_paradis", "offline_highcard")
END_TO_END = (
    ("records_per_sec", "rec/s"),
    ("cpu_ns_per_record", "ns"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(targets=("perfbench",)):
    """Configure (once) and build; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def inputs(workload, seed):
    """Input directory for (workload, seed), generated once and kept in the
    page cache; other seeds' files of the workload are removed first."""
    root = os.path.join(BUILD, "inputs")
    path = os.path.join(root, "%s-%d" % (workload, seed))
    if workload not in OFFLINE:
        return path
    marker = os.path.join(path, ".complete")
    stamp = str(os.path.getmtime(BINARY))  # a rebuilt generator invalidates
    current = None
    if os.path.exists(marker):
        with open(marker) as f:
            current = f.read()
    if current != stamp:
        if os.path.isdir(root):
            for name in os.listdir(root):
                if name.startswith(workload + "-"):
                    shutil.rmtree(os.path.join(root, name), ignore_errors=True)
        subprocess.run([BINARY, "gen", "--workload", workload, "--seed", str(seed),
                        "--dir", path], check=True, timeout=RUN_TIMEOUT_S)
        with open(marker, "w") as f:
            f.write(stamp)
    for name in sorted(os.listdir(path)):  # into the page cache
        with open(os.path.join(path, name), "rb") as f:
            while f.read(1 << 20):
                pass
    return path


def commit_id():
    if os.environ.get("CALIB_GIT_SHA"):
        return os.environ["CALIB_GIT_SHA"]
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def layer_names():
    """Per-layer metric names in report order, as the binary lists them."""
    out = subprocess.run([BINARY, "layers"], stdout=subprocess.PIPE, check=True,
                         text=True, timeout=60)
    return [tuple(line.split()) for line in out.stdout.splitlines() if line.strip()]


def run(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns the binary's report (dict) or None."""
    out_dir = os.path.join(BUILD, "out", "%s-%d-%d" % (workload, seed, trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", inputs(workload, seed), "--out", out_dir, *extra]
    env = dict(os.environ, CALIB_GIT_SHA=commit_id())
    # its own process group, so a timeout also stops its set-up processes
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException as e:  # a timeout, or run.py itself interrupted
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        log("workload timed out:", workload)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("workload failed:", workload, "exit", proc.returncode)
        return None
    return json.loads(lines[-1])


def result_line(report, trace):
    """The benchmark's result object from the binary's report."""
    wanted = layer_names() if trace else list(END_TO_END)
    metrics, correct = {}, report["failed"] == 0 and report["attempted"] > 0
    for name, unit in wanted:
        m = report["metrics"].get(name)
        if m is None or m["unit"] != unit:
            log("missing metric:", name)
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    report = run(args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        return 1
    for err in report.get("errors", []):
        log("FAILED:", err)
    print(json.dumps(report))
    print(json.dumps(result_line(report, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
