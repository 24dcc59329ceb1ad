"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload: two traced runs with seed N must give identical counts
(every per-layer metric with unit ``count``: calls, switch events, segments,
searches, curve evaluations, points), and an untraced run with seed N + 1
must pass every output check. Run from the root of a source checkout; exits
1 if any workload fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, seconds: float) -> list[str]:
    errors = []
    first, second = (bench(workload, seed, seconds, 1) for _ in range(2))
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            errors.append(f"{name}: {a} then {b} with seed {seed}")
    other = bench(workload, seed + 1, seconds, 0)
    if not other["correct"]:
        errors.append(f"seed {seed + 1}: {other['failed']} of {other['attempted']} rows failed")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    failed = False
    for workload in args.workload or list(WORKLOADS):
        try:
            errors = check(workload, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            errors = [str(exc)]
        failed |= bool(errors)
        print(f"{workload}: {'FAIL' if errors else 'ok'}")
        for e in errors:
            print(f"  {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
