"""Print every benchmark metric, per workload, by name with its unit.

Run from the repository root:

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs twice, each time in a fresh process: ``--trace 0``
for the end-to-end metrics and ``--trace 1`` for the per-layer ones.
The alert digest of both runs is printed; they must agree.  Exits
non-zero if any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for name in (item["name"] for item in bench["workloads"]):
        print(f"== {name} (seed {args.seed})")
        digests = []
        for trace in (0, 1):
            meta, result = run(name, args.seed, args.seconds, trace)
            digests.append(meta["digest"])
            ok &= result["correct"] and result["failed"] == 0
            print(f"   trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" passes={meta['passes']} digest={meta['digest']}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
        ok &= digests[0] == digests[1]
        print(f"   alert digests agree: {digests[0] == digests[1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
