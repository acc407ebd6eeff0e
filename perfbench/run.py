#!/usr/bin/env python3
"""Served-request benchmark of the INTO-OA fabric: the one command.

Builds the release binaries from source (`oa-serve`, `oa-router` and this
directory's `perfbench` package), prints one `host` line, then runs

    perfbench --workload W --seed N --seconds S --trace 0|1

against two `oa-serve` shards and one `oa-router` started as separate
processes over fresh stores on the real disk. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Usage, from the repository root:

    python3 perfbench/run.py --workload eval_cold --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); stores,
digests and span dumps go to `.bench_run/<source digest>/`. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("eval_cold", "batch_warm", "bo_session")
SOURCES = ("Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cargo(args, env):
    result = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed: cargo {' '.join(args)}", 1)


def target_cpu(env):
    """The target-cpu codegen flag the build used (RUSTFLAGS or .cargo/config.toml)."""
    found = re.findall(r"target-cpu=([\w.-]+)", env.get("RUSTFLAGS", ""))
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if not found and os.path.isfile(config):
        with open(config, encoding="utf-8") as f:
            found = re.findall(r"target-cpu=([\w.-]+)", f.read())
    return found[-1] if found else "default"


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
        for path in paths:
            if os.path.basename(path) == "Cargo.lock" and top == "perfbench":
                continue
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    # A terminated run still reaches the process-group cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml"),
                   os.path.join("crates", "router", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    # Release builds only: the benchmark binary itself refuses a build
    # with debug assertions.
    cargo(["build", "--release", "--offline", "-p", "oa-serve", "-p", "oa-router"], env)
    cargo(["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"], env)

    # One work directory per source tree: response digests are compared
    # only between runs of the same code.
    sources = source_digest()
    work = os.path.join(ROOT, ".bench_run", sources)
    os.makedirs(work, exist_ok=True)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.stdout.strip() or "unknown",
        "target_cpu": target_cpu(env),
        "store_fs": fs_type(work),
        "commit": commit(),
        "source_sha256": sources,
    }
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    bin_dir = os.path.join(target, "release")
    command = [os.path.join(bin_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
               "--bin-dir", bin_dir, "--work-dir", work]
    # Own process group, so no server outlives the run whatever happens.
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
