"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import signal
import time
from pathlib import Path

import pytest
import yaml

import reference
import run
import tracing
import workloads

hybridlv = workloads.import_engine()
from hybridlv.config import load_config, resolve_config  # noqa: E402

SEEDS = [0, 1, 7, 20240914]


def _sizes(plan):
    """Everything about a plan that sets the work of an op."""
    out = [plan.work_per_op]
    for call in plan.calls:
        run_block = call.cfg.run_block
        out.append((
            call.command,
            call.cfg.model_block,
            call.cfg.grid_block,
            call.cfg.maturities(),
            len(call.cfg.strikes()),
            {k: v for k, v in run_block["mc"].items() if k != "seed"},
            run_block["calibration"],
        ))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_no_grid_step_or_path_count(workload, tmp_path):
    sizes = []
    starts = set()
    for seed in SEEDS:
        plan = workloads.Plan.generate(workload, seed, tmp_path / f"s{seed}")
        plan.prepare()
        assert plan.work_per_op > 0
        sizes.append(_sizes(plan))
        call = plan.calls[0]
        step = float(call.cfg.run_block["strikes"]["step"])
        shift = call.cfg.strikes()[0] - float(_bundled(call.name).run_block["strikes"]["start"])
        assert 0.0 <= shift < step
        starts.add(float(call.cfg.strikes()[0]))
    assert all(s == sizes[0] for s in sizes[1:])
    assert len(starts) == len(SEEDS)


def _bundled(name):
    return load_config(workloads.CONFIG_DIR / f"{name}.yaml")


@pytest.mark.parametrize("name", sorted({n for calls in workloads.WORKLOADS.values()
                                         for _, n in calls}))
def test_zero_shift_reproduces_the_bundled_config(name):
    bundled = _bundled(name)
    mc_seed = bundled.run_block["mc"]["seed"]
    generated = resolve_config(workloads.generate_config(name, "elsewhere", 0.0, mc_seed))
    assert generated.run_block.pop("out_dir") == "elsewhere"
    bundled.run_block.pop("out_dir")
    assert generated.raw == bundled.raw
    assert list(generated.strikes()) == list(bundled.strikes())


def test_seed_sets_the_mc_stream_only_on_mc(tmp_path):
    mc = workloads.Plan.generate("mc", 5, tmp_path / "mc")
    march = workloads.Plan.generate("march", 5, tmp_path / "march")
    assert mc.calls[0].cfg.run_block["mc"]["seed"] == workloads.seed_params(5)[1]
    assert march.calls[0].cfg.run_block["mc"]["seed"] == _bundled("bshw_rho_pos").run_block["mc"]["seed"]


def test_each_workload_has_a_reference_kernel_of_fixed_work():
    assert sorted(reference.KERNELS) == sorted(workloads.WORKLOADS)
    for kernel in set(reference.KERNELS.values()):
        assert kernel() == kernel()


def test_sampler_times_passes_during_an_op_and_then_stops():
    sampler = reference.Sampler("march")
    before = signal.getsignal(signal.SIGALRM)
    t = time.perf_counter()
    with sampler.during_op() as passes:
        while len(sampler.walls) < 3 and time.perf_counter() - t < 10 * reference.INTERVAL:
            pass
    wall = time.perf_counter() - t
    assert len(passes) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    own, cost = reference.op_cost(wall, passes)
    assert own == pytest.approx(wall - sum(passes))
    assert cost == pytest.approx(own * len(passes) / sum(passes))


def test_missing_binding_fails_the_trace_loudly(monkeypatch):
    monkeypatch.delattr(hybridlv.pde, "thomas_apply")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="hybridlv.pde.thomas_apply"):
        tracer.install()
    assert not tracer._saved


def _coarse_config(tmp_path):
    raw = workloads.generate_config("bshw_rho_pos", str(tmp_path / "out"), 0.0, None)
    raw["grid"].update(ds=0.05, dr=0.01, dt=0.05)
    path = tmp_path / "coarse.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_traced_op_self_times_account_for_its_wall(tmp_path):
    path = _coarse_config(tmp_path)
    cli = hybridlv.cli
    untraced = []
    for _ in range(2):
        t = tracing.perf_counter()
        assert cli.run("price-pde", config_path=str(path)) == 0
        untraced.append(tracing.perf_counter() - t)
    tracer = tracing.Tracer()
    tracer.begin_op(1)
    tracer.install()
    try:
        t = tracing.perf_counter()
        assert cli.run("price-pde", config_path=str(path)) == 0
        wall = tracing.perf_counter() - t
    finally:
        tracer.uninstall()
    assert not hasattr(cli.run, "__wrapped__")

    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.run" and tracer.spans[0][3] == -1
    assert all(span[3] >= 0 for span in tracer.spans[1:])
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert math.isclose(sum(own), tracer.spans[0][2] - tracer.spans[0][1], rel_tol=1e-9)
    assert sum(own) <= wall

    # A constant-vol march factors its two sweeps once.
    assert names.count("pde.evolve") == 1
    assert names.count("linalg.thomas_prefactor") == 2
    metrics = tracing.layer_metrics(tracer, "march", [wall], untraced, [1])
    assert list(metrics) == list(tracing.METRICS)
    assert metrics["linalg.apply_calls"] == 2 * metrics["pde.steps"]
    assert 0.9 < metrics["trace.self_coverage"] <= 1.0


def test_required_span_missing_fails_the_trace():
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.wrap("cli.run", lambda: None)()
    with pytest.raises(tracing.TraceError, match="pde.evolve"):
        tracing.layer_metrics(tracer, "march", [1.0], [1.0], [0])


def test_benchmark_json_names_every_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.UNITS[name] for name in run.REPORTED}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    assert Path(spec["command"][1]).parent.as_posix() in spec["paths"]
