#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fwd-small-cold --seed 1 --seconds 30 --trace 0

The Go build cache, module cache and binary all live under .bench_build
at the repository root, so the benchmark reads and writes nothing outside
the checkout; a traced run (--trace 1) writes its spans there too, as
.bench_build/spans/<workload>-seed<N>.jsonl. Build output goes to
standard error; the benchmark's own standard output, whose last line is
the JSON result, passes through unchanged. A failed build exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def run(cmd, **kw):
    """Run cmd to completion, passing SIGTERM and SIGINT on to it."""
    proc = subprocess.Popen(cmd, **kw)

    def forward(signum, _frame):
        proc.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    code = run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 1
    spans = os.path.join(BUILD, "spans")
    code = run([binary, "--spans", spans] + sys.argv[1:], cwd=ROOT, env=env)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
