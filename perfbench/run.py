"""Benchmark of the hybridlv CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload march --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.WORKLOADS`` and BENCHMARK.json for the reasons):
``march``, ``calibrate`` and ``mc``. Every run starts fresh processes with
one BLAS/OpenMP thread each: a few set-up probes that only import hybridlv
and generate the configs, each next to an import probe (``setup_s``, see
``IMPORT_PROBE``), then one worker
that runs ops in a closed loop for ``--seconds``, timing the fixed kernel
of ``reference.py`` during every untraced op. Op times are gated as
multiples of that kernel's time (``op_cost_ref``, ``work_per_ref``)
because the host's speed drifts from op to op; seconds are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run. The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it print every metric with its unit, and the run record
(seed, config digests, nproc, versions) is written to
``perfbench/out/<workload>-s<seed>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
# Set-up is read against a fresh interpreter importing the engine's
# third-party dependencies: that is most of set-up's work, and it slows with
# the host as set-up does, so the host's drift between runs cancels in the
# ratio. NOMINAL_IMPORT_S, about the probe's time on a 2-vCPU Xeon VM,
# turns the median ratio back into seconds.
IMPORT_PROBE = (
    "from time import perf_counter\nt = perf_counter()\n"
    "import numpy, scipy.special, yaml\n"
    "print('{\"import_s\": %r}' % (perf_counter() - t))"
)
NOMINAL_IMPORT_S = 0.4
# A run exits within this many seconds beyond --seconds, killing a stuck worker.
RUN_SLACK_S = 160.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = ("march", "calibrate", "mc")
UNITS = {
    "op_cost_ref": "ref",
    "work_per_ref": "1/ref",
    "accuracy_err": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "setup_raw_s": "s",
    "op_wall_s": "s",
    "work_per_s": "1/s",
    "ref_s": "s",
    "fail_ratio": "1",
}
# The rest are printed but not returned: raw seconds move with the host's
# speed, and fail_ratio is the result's failed/attempted.
REPORTED = ("op_cost_ref", "work_per_ref", "accuracy_err", "setup_s", "peak_rss_mb")


class RunError(RuntimeError):
    pass


def _python(args: list[str], deadline: float) -> dict:
    """Runs a fresh interpreter; returns the JSON object of its last line."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(HERE)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RunError(f"worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def _worker(args: list[str], deadline: float) -> dict:
    return _python([str(HERE / "worker.py"), *args], deadline)


def _import_s(deadline: float) -> float:
    return _python(["-c", IMPORT_PROBE], deadline)["import_s"]


def tail_percentile(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1])
    return best


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    for needed in (ROOT / "src" / "hybridlv" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            raise RunError(f"{needed} is missing; run from the root of a hybridlv checkout")
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    run_dir = Path("perfbench") / "out" / f"{workload}-s{seed}"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--run-dir", run_dir.as_posix()]

    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        imports.append(_import_s(deadline))
        setups.append(_worker(common + ["--setup-only"], deadline)["setup_s"])
    imports.append(_import_s(deadline))
    out = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(out["setup_s"])

    walls = out["walls"]
    record = dict(out["record"], setup_samples=setups, import_samples=imports, op_walls=walls,
                  op_costs=out["costs"], ref_walls=out["ref_walls"],
                  traced_op_walls=out.get("traced_walls"), failures=out["failures"])
    (ROOT / run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    attempted, failed = out["attempted"], out["failed"]
    print(f"workload={workload} seed={seed} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}")
    print("config digests: " + " ".join(f"{k}={v}" for k, v in record["config_digests"].items()))
    for failure in out["failures"]:
        print("FAILED " + failure.strip().splitlines()[-1])
    if not out["accuracy"]:
        raise RunError("no op completed and passed its checks")

    tail = tail_percentile(walls)
    print(f"op_wall_s samples={len(walls)} "
          + (f"p{tail[0]}={tail[1]:.6g} s" if tail else "(too few samples for a tail percentile)"))

    if trace:
        if "layers" not in out:
            raise RunError("the traced run completed no untraced and traced op pair")
        shown = {name: {"value": v, "unit": tracing.METRICS[name][0]}
                 for name, v in out["layers"].items()}
        metrics = shown
    else:
        print(f"ref_s samples={len(out['ref_walls'])}; work_per_ref and work_per_s count "
              f"{out['work_unit']} ({out['work_per_op']:.6g} per op)")
        op_wall = statistics.median(walls)
        op_cost = statistics.median(out["costs"])
        values = {
            "op_cost_ref": op_cost,
            "work_per_ref": out["work_per_op"] / op_cost,
            "accuracy_err": statistics.median(out["accuracy"]),
            "setup_s": NOMINAL_IMPORT_S * statistics.median(
                s / i for s, i in zip(setups, imports)),
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_raw_s": statistics.median(setups),
            "op_wall_s": op_wall,
            "work_per_s": out["work_per_op"] / op_wall,
            "ref_s": statistics.median(out["ref_walls"]),
            "fail_ratio": failed / attempted,
        }
        shown = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        metrics = {name: shown[name] for name in REPORTED}
    for name, m in shown.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
