#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generate --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout, with the dune cache off, so nothing is read from or written to
a shared cache.  Build messages go to stderr; the benchmark's last line
of standard output is its JSON result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 300


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--display", "quiet", "perfbench/main.exe"]
    # A cold build takes well under a minute; dune was seen to hang on a
    # futex once when two builds shared the build directory, so a build
    # that outlives the limit is killed and retried once.
    for attempt in (1, 2):
        try:
            build = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                   stdin=subprocess.DEVNULL,
                                   timeout=BUILD_TIMEOUT_S)
            break
        except subprocess.TimeoutExpired:
            print(f"perfbench: build attempt {attempt} timed out",
                  file=sys.stderr)
    else:
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:],
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
