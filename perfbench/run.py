"""pathdraw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report|chains|sprawl --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it draws with the ``pathdraw`` found in
``src`` there. Each run starts ``worker.py`` in fresh processes, one after
another: with ``--trace 0``, two that only set up and one that sets up and
then runs the timed closed loop, so set-up time is the median of three;
with ``--trace 1``, one traced run. Set-up and job times are scaled by a
machine-speed reference (``speed.py``). It prints a readable summary, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or the per-layer ones when traced).
NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report", "chains", "sprawl")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0  # the whole run, all processes included


class RunFailed(Exception):
    pass


def run_worker(args: argparse.Namespace, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker, wait for it, and return its set-up time and result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    reference_before = speed.reference_median()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"{role} process passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"{role} process exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    reference = [ln for ln in lines if ln.startswith("reference ")]
    if not ready or not reference:
        raise RunFailed(f"{role} process never finished set-up")
    wall_s = float(ready[0].split()[1]) - started
    # scaled by the speed reference timed on either side of the set-up
    reference_s = (reference_before + float(reference[0].split()[1])) / 2
    setup_s = wall_s * speed.NOMINAL_S / reference_s
    result = json.loads(lines[-1]) if role == "run" else None
    return setup_s, result


def summary(args: argparse.Namespace, result: dict, setups: list[float]) -> list[str]:
    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"  inputs: {result['pool']} graphs, edges {result['edges']}, digest {result['digest']}",
        f"  jobs: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}; "
        f"{result['checked_inputs']}/{result['pool']} inputs checked in full",
    ]
    if args.trace:
        lines.append(
            f"  traced: {info['passes']} passes, {info['traced_jobs']} traced jobs, "
            f"{info['spans']} spans; per-layer values are per pass over the pool"
        )
        lines.append(f"  self-time share by layer: {info['layer_share']}")
    else:
        lines.append(
            f"  setup_s samples {[round(s, 4) for s in setups]}; "
            f"job_s.p50 over {info['jobs']} jobs; "
            f"edges_merged (input edges without their own route) {info['edges_merged']}"
        )
        lines.append(
            f"  unscaled wall job_s.p50 {info['wall_job_s.p50']:.6f} s; speed reference "
            f"p50 {info['reference_s.p50']:.6f} s against nominal {speed.NOMINAL_S} s"
        )
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:40s} {value:16.6f} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pathdraw" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pathdraw sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    roles = ["run"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["run"]
    setups = []
    try:
        for role in roles:
            setup_s, result = run_worker(args, role, deadline)
            setups.append(setup_s)
    except RunFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        with contextlib.suppress(OSError):  # left only if empty
            (ROOT / ".perfbench_work").rmdir()
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    for line in summary(args, result, setups):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["checked_inputs"] == result["pool"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
