"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload survey --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric its values, median, and inter-quartile distance as a
share of the median — the figure a metric's bound in ``BENCHMARK.json``
must stay clear of, next to the same figure for the raw host values.
Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import summary  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = json.loads((HERE.parent / ".perfbench" / args.workload
                             / "run.json").read_text())
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            values.setdefault("raw " + name, []).append(
                record["raw"][name])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.4f}"
            for name, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        print(f"{name:<22} median {statistics.median(vals):.4f}  "
              f"spread {summary.spread(vals):.4f}  n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
