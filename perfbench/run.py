#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the OCaml harness (perfbench/ocaml) against the checkout's own
lib/ in a staging dune workspace under the build directory, then runs one
workload:

    python3 perfbench/run.py --workload table3_batch --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  The build directory is
$CARGO_TARGET_DIR when set (relative paths resolve against the checkout
root), else .bench_build.  Exits non-zero without a result when the
checkout has no lib/ to build against or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table3_batch", "point_reads", "live_epochs", "spilled_mpp")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose bytes changed so
    dune's incremental build stays warm across runs."""
    os.makedirs(dst, exist_ok=True)
    wanted = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in wanted:
            path = os.path.join(dst, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in wanted:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            sync_tree(s, d)
        else:
            sync_file(s, d)


def sync_file(src, dst):
    with open(src, "rb") as f:
        data = f.read()
    if os.path.isfile(dst):
        with open(dst, "rb") as f:
            if f.read() == data:
                return
    with open(dst, "wb") as f:
        f.write(data)


def build(build_dir):
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        fail("no lib/ in %s: nothing to build against" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    ws = os.path.join(build_dir, "ws")
    os.makedirs(ws, exist_ok=True)
    sync_tree(lib, os.path.join(ws, "lib"))
    bench = os.path.join(ws, "bench")
    os.makedirs(bench, exist_ok=True)
    src = os.path.join(HERE, "ocaml")
    for name in os.listdir(src):
        if name == "dune-project":
            sync_file(os.path.join(src, name), os.path.join(ws, name))
        else:
            sync_file(os.path.join(src, name), os.path.join(bench, name))
    proc = subprocess.run(
        [dune, "build", "--root", ws, "--profile", "release",
         "--display", "quiet", "./bench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    return os.path.join(ws, "_build", "default", "bench", "perfbench.exe")


def git_rev():
    """The checkout's revision, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="override the workload's KB scale (smoke checks)")
    args = p.parse_args()
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "runs")]
    rev = git_rev()
    if rev:
        cmd += ["--git-rev", rev]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
