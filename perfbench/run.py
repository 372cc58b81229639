"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload survey --seed 7 --seconds 20 --trace 0

Runs from the root of a source checkout. Each workload process is a
fresh interpreter with ``PYTHONPATH=src`` and single-threaded BLAS.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the
  median over several fresh processes that only prepare the inputs
  (after one discarded warm-up), the rest come from one untraced
  workload process.
* ``--trace 1`` runs the workload untraced and then traced, and reports
  the per-layer metrics of the traced process plus
  ``obs.trace_overhead_ratio`` (traced / untraced makespan).

Human-readable lines go first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output and accounting check passed. A run record with
the host fingerprint lands in ``.perfbench/<workload>/run.json``.

``--record`` re-runs the default seed unsliced and stores each round's
output digest in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOAD_NAMES = ("survey", "longhaul-sliced", "hybrid-bond")
DEFAULT_SEED = 7
#: Timed set-up probes per run, after one discarded warm-up probe.
SETUP_PROBES = 4
#: Wall budget of one benchmark invocation, children included.
RUN_BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
import summary  # noqa: E402


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # numpy's OpenBLAS otherwise starts one thread per core.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha()}


def spawn(args, mode: str, deadline: float, trace: bool = False):
    """Run one workload process; returns ``(result, spawned_at)``."""
    workdir = args.workdir / ("traced" if trace else mode)
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    timeout = None if deadline is None \
        else max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), spawned


def finish(args, record: dict, result: dict, errors) -> int:
    """Print the errors and the JSON result line, keep the run record."""
    for error in errors:
        print(error, file=sys.stderr)
    record["result"] = result
    (args.workdir / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args) -> int:
    deadline = time.perf_counter() + RUN_BUDGET_S
    host = fingerprint()
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host}
    print(f"host: nproc={host['nproc']} loadavg={host['loadavg'][0]:.2f} "
          f"python={host['python']} git={host['git_sha'][:12]}")

    setup = []
    if not args.trace:
        spawn(args, "setup", deadline)  # warm-up: bytecode, page cache
        for _ in range(SETUP_PROBES):
            probe, spawned = spawn(args, "setup", deadline)
            setup.append((probe["ready"] - spawned, probe["setup_calib_s"]))
    child, spawned = spawn(args, "run", deadline)
    setup.append((child["ready"] - spawned, child["setup_calib_s"]))
    attempted = child["attempted"]
    record.update(numpy=child["numpy"], rounds=child["seeds"],
                  digest_checks=child["digest_checks"], setup_probes=setup,
                  units_s=child["units"], calib_s=child["calib_s"],
                  makespan_raw_s=child["makespan_s"], sim_s=child["sim_s"])
    print(f"numpy={child['numpy']} seed={args.seed} rounds={child['seeds']} "
          f"digests={child['digest_checks']}")
    if child["error"]:
        print(f"[{args.workload}]  failed_ratio 1.0 ratio "
              f"failed={attempted} attempted={attempted}")
        return finish(args, record, {"correct": False, "attempted": attempted,
                                     "failed": attempted, "metrics": {}},
                      [child["error"]])

    e2e = summary.end_to_end_metrics(child, setup)
    raw = summary.end_to_end_metrics(child, setup, normalize=False)
    record["raw"] = raw
    print(f"host speed factor {summary.run_factor(child):.4f} from "
          f"{len(child['calib_s'])} calibration samples")
    for line in summary.report_lines(args.workload, e2e, raw, attempted, 0,
                                     child["unit"], len(setup)):
        print(line)
    if not args.trace:
        return finish(args, record, {
            "correct": True, "attempted": attempted, "failed": 0,
            "metrics": summary.result_line_metrics(
                e2e, summary.END_TO_END)}, [])

    traced, _ = spawn(args, "run", deadline, trace=True)
    # Layer times are normalised like the end-to-end ones, so the
    # overhead ratio compares the two processes at equal host speed.
    factor = summary.run_factor(traced)
    layers = {name: value * factor if summary.PER_LAYER[name] == "s"
              else value for name, value in traced["layers"].items()}
    layers["obs.trace_overhead_ratio"] = (traced["makespan_s"] * factor
                                          / e2e["makespan_s"])
    print(f"  traced run: {traced['spans']} spans, makespan "
          f"{traced['makespan_s'] * factor:.3f} s "
          f"(raw {traced['makespan_s']:.3f} s)")
    for name, unit in summary.PER_LAYER.items():
        print(f"  {name:<34} {layers[name]:>16.6f} {unit}")
    errors = [traced["error"]] if traced["error"] else []
    return finish(args, record, {
        "correct": not errors, "attempted": attempted,
        "failed": traced["failed"],
        "metrics": summary.result_line_metrics(layers, summary.PER_LAYER)},
        errors)


def record_digests(args) -> int:
    """Store the unsliced default-seed digests of every workload."""
    path = HERE / "digests.json"
    table = {"default_seed": DEFAULT_SEED, "seconds": args.seconds,
             "workloads": {}}
    for name in WORKLOAD_NAMES:
        args.workload, args.seed = name, DEFAULT_SEED
        args.workdir = ROOT / ".perfbench" / name
        child, _ = spawn(args, "record", None)
        if child["error"]:
            print(child["error"], file=sys.stderr)
            return 1
        table["workloads"][name] = child["digests"]
        print(f"{name}: {child['digests']}")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    if args.record:
        return record_digests(args)
    if args.workload is None:
        parser.error("--workload is required")
    args.workdir = ROOT / ".perfbench" / args.workload
    try:
        return run(args)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
