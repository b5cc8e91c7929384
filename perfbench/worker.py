"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops after set-up (importing hybridlv and
generating the configs) and reports only that time.

Every op is an in-process ``hybridlv.cli.run`` call with stdout and
stderr swallowed. Its artifacts are checked after the timed span and
removed before the next op. With ``--trace 1`` untraced and traced ops
alternate, so the tracing overhead is measured in the same run. Untraced
runs time the workload's fixed reference kernel during every op
(``reference.py``), so op times can be read against the host's speed at
the time.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

# A run stops early after this many failed ops; they all count in failed.
MAX_FAILURES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True, help="relative to the checkout root")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    engine = workloads.import_engine()
    plan = workloads.Plan.generate(args.workload, args.seed, Path(args.run_dir))
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    import reference

    plan.prepare()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # fail before any op if a binding is gone
        tracer.uninstall()

    sampler = None if tracer else reference.Sampler(args.workload)
    walls, costs, traced_walls, accuracy, traced_bytes, failures = [], [], [], [], [], []
    attempted = 0
    started = perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.begin_op(attempted)
            tracer.install()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                timing = sampler.during_op() if sampler else contextlib.nullcontext()
                t = perf_counter()
                with timing as passes:
                    plan.run_op(engine.cli)
                wall = perf_counter() - t
            if traced:
                tracer.uninstall()
                traced_walls.append(wall)
            elif sampler:
                own, cost = reference.op_cost(wall, passes)
                walls.append(own)
                costs.append(cost)
            else:
                walls.append(wall)
            accuracy.append(plan.check())
            if traced:
                traced_bytes.append(sum(
                    p.stat().st_size for call in plan.calls for p in call.out_dir.iterdir()))
        except workloads.CheckFailed as exc:
            failures.append(f"op {attempted}: {exc}")
        except Exception:  # an op that raises counts as failed; the run goes on
            failures.append(f"op {attempted}: {traceback.format_exc()}\n{sink.getvalue()[-2000:]}")
        finally:
            if tracer is not None:
                tracer.uninstall()
            plan.clear_artifacts()
        attempted += 1
        if len(failures) >= MAX_FAILURES:
            break
        if perf_counter() - started >= args.seconds and attempted >= (2 if tracer else 1):
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "costs": costs,
        "ref_walls": sampler.walls if sampler else [],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "accuracy": accuracy,
        "work_per_op": plan.work_per_op,
        "work_unit": plan.work_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "strike_shift_steps": plan.shift_frac,
            "mc_seed": plan.mc_seed,
            "config_digests": plan.digests(),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "hybridlv": engine.__version__,
            "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        },
    }
    if tracer is not None:
        tracer.write(workloads.ROOT / args.run_dir / "trace.jsonl", started)
        if walls and traced_walls:
            result["layers"] = tracing.layer_metrics(
                tracer, args.workload, traced_walls, walls, traced_bytes)
        result["traced_walls"] = traced_walls
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - report and exit non-zero
        traceback.print_exc()
        print(f"perfbench worker: {exc}", file=sys.stderr)
        sys.exit(2)
