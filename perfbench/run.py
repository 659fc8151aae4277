#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload {tune|engine|serve} --seed N \\
        --seconds S --trace {0|1}

Run from the root of a checkout. Builds the measuring program
(perfbench/, its own Cargo package) and the `papd` daemon from source into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, and prints a
human-readable table followed, as the last line of standard output, by one
JSON object with exactly the keys correct, attempted, failed and metrics.
Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
its per-layer metrics. The full result, with the host and provenance block,
is also written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

WORKLOADS = ("tune", "engine", "serve")
# Wall-clock budget of one measuring run, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
OUT_DIR = ".bench_out"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def check_checkout():
    """The benchmark builds the repository from source: refuse to run
    anywhere that is not a checkout of it."""
    for path in ("Cargo.toml", "Cargo.lock", "crates/service/Cargo.toml",
                 "perfbench/Cargo.toml", "BENCHMARK.json"):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a checkout", 2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--workspace", "--bin", "papd"],
    ]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {' '.join(cmd)}: {e}")
        if res.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {res.returncode}")


def run_measurement(cmd):
    """Run the measuring program in its own process group, so a timeout
    also stops the daemon it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"measurement exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Anything the program left behind in its group (it should leave
        # nothing) is stopped too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"measurement exited {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("measurement printed no result")
    return json.loads(lines[-1])


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the source tree the benchmark builds, identifying the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def provenance(args, result):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit,
        "source_sha256_16": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "threads": result.get("threads"),
        "traced": bool(args.trace),
    }


def declared_metrics(traced):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if traced else "end_to_end"]


def contract_problems(metrics, declared):
    """Every declared metric must be measured, as a number, in its unit."""
    problems = []
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, declared {m['unit']}")
    return problems


def final_line(result, declared, problems):
    """The last line of output: exactly correct, attempted, failed and the
    declared metrics."""
    names = {m["name"] for m in declared}
    return json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items() if k in names},
    })


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv):
    args = parse_args(argv)
    check_checkout()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target_dir)
    os.makedirs(OUT_DIR, exist_ok=True)
    exe = os.path.join(target_dir, "release", "perfbench")
    papd = os.path.join(target_dir, "release", "papd")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--papd", papd, "--out", OUT_DIR]
    started = time.monotonic()
    result = run_measurement(cmd)
    wall = time.monotonic() - started

    metrics = result["metrics"]
    declared = declared_metrics(args.trace == 1)
    problems = contract_problems(metrics, declared)
    correct = bool(result["correct"]) and not problems

    prov = provenance(args, result)
    full = dict(result, provenance=prov, wall_s=wall, contract_problems=problems)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(full, f, indent=1)

    print("provenance " + json.dumps(prov, sort_keys=True))
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"workload {args.workload}: {result['failed']} failed of {result['attempted']} attempted, "
          f"correct {str(correct).lower()}, {wall:.1f} s")
    for title, group in ((kind, metrics), ("supporting", result.get("report", {}))):
        for metric, v in group.items():
            print(f"  {title:<10} {metric:<44} {fmt(v['value']):>14} {v['unit']}")
    for check in result.get("checks", []) + [{"name": p, "ok": False, "detail": ""} for p in problems]:
        print(f"  check      {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for check in result.get("selfchecks", []):
        print(f"  selfcheck  {'ok  ' if check['ok'] else 'WARN'} {check['name']}: {check['detail']}")
    print(final_line(result, declared, problems))


if __name__ == "__main__":
    main(sys.argv[1:])
