#!/usr/bin/env python3
"""Builds the bvq server and the benchmark from source, then runs one
benchmark workload.

Run from the root of a checkout:

    python3 bvqbench/run.py --workload cold|hot|churn --seed N --seconds S --trace 0|1

Build output goes to standard error; standard output carries only the
benchmark's report, whose last line is the JSON result. Binaries go to
$CARGO_TARGET_DIR (default `.bench_build`), run records and spans to
`.bench_out/`.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "bvqbench")
# A run is bounded at 180 s; leave the margin for stopping cleanly.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"bvqbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "bvq-cli", "--bin", "bvq"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def source_revision():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository counts, not one around it.
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cold", "hot", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "cli", "Cargo.toml"),
                   os.path.join("bvqbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the root of a bvq checkout: `{needed}` is missing")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "bvqbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bvq", os.path.join(release, "bvq"),
        "--commit", source_revision(),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    # Its own process group, so a timeout stops the server it spawned too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
