#!/usr/bin/env python3
"""Build the SDX benchmark from source and run one workload.

Run from the root of a checkout:

    python3 sdxperf/run.py --workload updates --seed 1 --seconds 10 --trace 0

The Go toolchain's cache and the binary go under .bench_build (or
$CARGO_TARGET_DIR when set) in the current directory, so the run writes
nothing outside the checkout. The build's own output goes to standard error;
the benchmark's last line of standard output is its JSON result. A traced run
(--trace 1) also writes its spans under the build directory.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(build, "sdxperf")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("sdxperf: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        args += ["--spans", os.path.join(build, "spans-%s-seed%s.jsonl" % (workload, seed))]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("sdxperf: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
