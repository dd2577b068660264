#!/usr/bin/env python3
"""Build the simulator's host-time benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable is built with dune into .bench_build/, under
the perfbench build profile (the only one that enables it), and then
replaces this process (os.execv), so its exit code and its standard
output -- whose last line is the JSON result -- are the command's own.
Build output goes to standard error.  See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SOURCE_DIRS = ("lib", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Hash of the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "perfbench", "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % build.returncode)
    commit = "git:%s,src:%s" % (git_commit(), source_digest())
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:] + ["--commit", commit], env)


if __name__ == "__main__":
    main()
