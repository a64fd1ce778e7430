#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/bench.exe from source with dune (build tree in
.bench_build/, dune's shared cache off, so nothing is read or written
outside the checkout), then runs it with the same arguments.  The last
line of standard output is the benchmark's JSON result.  Exits non-zero,
without a result, when the build or the run fails.  --self-test builds
and runs the benchmark's own tests instead.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "bench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune(*args):
    exe = shutil.which("dune")
    if exe is None:
        fail("dune not found on PATH")
    cmd = [exe, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", *args]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed (%s)" % " ".join(args))


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    # git would search the parent directories for a repository otherwise
    if not os.path.exists(".git"):
        return source_digest()
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if not os.path.isfile("dune-project"):
        fail("run from the root of a source checkout (no dune-project here)")
    if args == ["--self-test"]:
        dune("@perfbench/runtest", "--force")
        return
    dune("./perfbench/bin/bench.exe")
    try:
        res = subprocess.run([EXE, *args, "--rev", source_rev()],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
