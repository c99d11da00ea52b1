#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload paper_eval|sim_bdb|stm_bdb \
        --seed N --seconds S --trace 0|1

Builds the `ltse-benchmark` binary from source (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload with the
run cache switched off, and prints two JSON lines on stdout: the full
result document (host fingerprint, checks, input sizes, digests) and, last,
the summary `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "benchmark", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    """The checked-out commit, read from `.git` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Keep the persistent run cache off: every simulation runs cold.
    env.pop("LTSE_CACHE", None)
    # Not --locked: the lock file lists only the repository's own crates,
    # and it must follow them when their dependency graph changes.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "ltse-benchmark")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")
    try:
        doc = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable run output: {e}")
    if list(doc["metrics"]) != wanted:
        fail("metrics printed do not match BENCHMARK.json")

    doc["host"] = {
        "cpus": os.cpu_count(),
        "git_rev": git_rev(),
        "rustc": rustc_version(),
        "profile": "release",
    }
    print(json.dumps(doc))
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
