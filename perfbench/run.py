#!/usr/bin/env python3
"""Build and run the tsbus benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it with the same arguments, and passes its
output through. In an untraced run it adds `peak_rss_mb`, the peak resident
memory of the benchmark process, read from the kernel's accounting of that
child when it exits. The last line of standard output is one JSON object.
"""

import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, CARGO_NET_OFFLINE="true")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run(binary, args):
    """Runs the benchmark binary; returns (exit status, stdout, peak RSS in KiB)."""
    with open(os.devnull, "rb") as devnull:
        child = subprocess.Popen(
            [binary] + args, cwd=ROOT, stdin=devnull, stdout=subprocess.PIPE, stderr=sys.stderr
        )
    # Read stdout on this thread while the child runs; its output is small.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    chunks = []
    os.set_blocking(child.stdout.fileno(), False)
    while True:
        try:
            chunk = child.stdout.read()
        except BlockingIOError:
            chunk = None
        if chunk:
            chunks.append(chunk)
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid == child.pid:
            break
        if time.monotonic() > deadline:
            child.send_signal(signal.SIGKILL)
            pid, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(0.02)
    rest = child.stdout.read()
    if rest:
        chunks.append(rest)
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, b"".join(chunks).decode(), usage.ru_maxrss


def main():
    args = sys.argv[1:]
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    code, out, max_rss_kib = run(binary, args)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: benchmark exited with {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    if not traced:
        result["metrics"]["peak_rss_mb"] = {"value": max_rss_kib / 1024.0, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
