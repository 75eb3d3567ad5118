#!/usr/bin/env python3
"""Build and run gpsd's end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hop-churn --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's own
sources into .bench_build/ (Go's build cache, module cache and config
directory are kept there too, so nothing outside the checkout is
written), then run with the same arguments from the checkout root. The
exit code is the program's; a failed build exits 2 without printing a
result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR="",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
