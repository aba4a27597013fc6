"""Tests of the benchmark itself, at tiny sizes: generators, checks, tracer, contract.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import hostspeed
import run
import tracer
import workloads

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def _restore_threads_env():
    saved = os.environ.get("DTQM_THREADS")
    yield
    if saved is None:
        os.environ.pop("DTQM_THREADS", None)
    else:
        os.environ["DTQM_THREADS"] = saved


def tiny_run(workload, tmp_path, seed=7, n_cycles=1):
    return run.Run(workload, seed, "tiny", str(tmp_path / "work"), n_cycles=n_cycles)


def no_child_rounds(args, host):
    """Stands in for the set-up rounds in fresh processes: one host sample, no rounds."""
    host.sample()
    return []


def args_for(workload, seed=7, seconds=0.0):
    return SimpleNamespace(workload=workload, seed=seed, seconds=seconds, trace=0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_seeded_and_keeps_the_mix(workload):
    a = workloads.generate(workload, 3, 2, "tiny")
    b = workloads.generate(workload, 3, 2, "tiny")
    c = workloads.generate(workload, 4, 2, "tiny")
    configs = lambda exps: [call.config for e in exps for call in e.calls]  # noqa: E731
    assert configs(a) == configs(b)
    assert configs(a) != configs(c)
    assert [e.kind for e in a] == [e.kind for e in c]
    assert len(a) == 2 * workloads.cycle_length(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_end_to_end(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "child_setup_rounds", no_child_rounds)
    r = tiny_run(workload, tmp_path)
    r.warm_up()
    out = run.end_to_end(args_for(workload), r, 0.5)
    result = out["result"]
    assert result["failed"] == 0, out["detail"]["failures"]
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.metric_names("end_to_end"))
    assert out["detail"]["failed_frac"] == 0.0
    assert "numpy" in out["environment"] and "threads_env" in out["environment"]
    # Timings are the raw wall-clock figures over the run's host factor.
    factor, raw = out["detail"]["host"]["factor"], out["detail"]["raw"]
    assert out["detail"]["host"]["samples"] == result["attempted"]
    assert result["metrics"]["experiment_s_p50"]["value"] == pytest.approx(raw["experiment_s_p50"] / factor)
    assert result["metrics"]["experiments_per_s"]["value"] == pytest.approx(raw["experiments_per_s"] * factor)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_adds_up(workload, tmp_path):
    r = tiny_run(workload, tmp_path)
    out = run.per_layer(args_for(workload), r)
    result = out["result"]
    assert result["failed"] == 0, out["detail"]["failures"]
    assert set(result["metrics"]) == set(run.metric_names("per_layer"))
    assert out["detail"]["absent"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # Self times, untraced remainder and overlapped child time account for
    # the traced wall time (cli.eigvals is a child of cli.main, so all
    # spans are among the listed layers).
    total = self_sum + metrics["trace.untraced_s"] - metrics["trace.parallel_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["cli.main.self_s"] > 0.0


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        r = tiny_run("pipeline_1024", tmp_path / str(attempt))
        m = run.per_layer(args_for("pipeline_1024"), r)["result"]["metrics"]
        counts.append({k: v["value"] for k, v in m.items() if k.endswith(".calls") or ".verdict." in k or k == "action.evals"})
    assert counts[0] == counts[1]
    assert counts[0]["classical.verdict.no_solution"] == 1.0
    assert counts[0]["classical.verdict.complete"] == workloads.cycle_length("pipeline_1024") - 1


def _corrupt_csv_value(path, row, col, delta):
    lines = open(path, encoding="utf-8").read().splitlines()
    cells = lines[2 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[2 + row] = ",".join(cells)
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")


def _edit_report(outdir, edit):
    path = os.path.join(outdir, "report.json")
    report = json.load(open(path, encoding="utf-8"))
    edit(report)
    json.dump(report, open(path, "w", encoding="utf-8"))


CORRUPTIONS = {
    # a classical position nudged: the recursion or the seed no longer holds
    "evolve": lambda d: _corrupt_csv_value(os.path.join(d, "evolve.csv"), 5, 5, 1e-6),
    "classical": lambda d: _corrupt_csv_value(os.path.join(d, "classical.csv"), 0, 1, 1e-6),
    "check-action": lambda d: _edit_report(d, lambda r: r["results"]["criterion"].update(is_constant=not r["results"]["criterion"]["is_constant"])),
    "build": lambda d: _edit_report(d, lambda r: r["results"].update(amplitude_phase=r["results"]["amplitude_phase"] + 0.1)),
    "sweep": lambda d: _edit_report(d, lambda r: r["results"]["sweep"]["max_deviation"].reverse()),
}


@pytest.mark.parametrize(
    "workload, which",
    # -1: the evolve or sweep call (the build call of a probe); 0, 1, 2: check-action, classical, build
    [(w, -1) for w in WORKLOADS] + [("pipeline_1024", 0), ("pipeline_1024", 1), ("pipeline_1024", 2)],
)
def test_corrupted_output_is_a_failed_experiment(workload, which, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "child_setup_rounds", no_child_rounds)
    r = tiny_run(workload, tmp_path)
    execute = r.execute

    def corrupting(exp):
        calls = execute(exp)
        call, _code, outdir = calls[which]
        CORRUPTIONS[call.command](outdir)
        return calls

    monkeypatch.setattr(r, "execute", corrupting)
    out = run.end_to_end(args_for(workload), r, 0.5)
    assert out["detail"]["failed_frac"] == 1.0, out["detail"]["failures"]
    assert out["result"]["correct"] is False
    assert out["result"]["metrics"]["verified_frac"]["value"] < 1.0


@pytest.mark.parametrize("command", ["evolve", "classical", "build", "sweep"])
def test_wrong_exit_code_and_missing_output_fail(command, tmp_path):
    workload = "evolve_1024" if command in ("evolve", "sweep") else "pipeline_1024"
    r = tiny_run(workload, tmp_path)
    exp = next(e for e in r.pool if any(c.command == command for c in e.calls))
    call, code, outdir = next(done for done in r.execute(exp) if done[0].command == command)
    from checks import check_call

    assert check_call(call, code, outdir) is None
    assert "exit code" in check_call(call, 1, outdir)
    shutil.rmtree(outdir)
    assert "unreadable output" in check_call(call, code, outdir)


def test_sine_probe_expects_a_stranded_particle(tmp_path):
    r = tiny_run("pipeline_1024", tmp_path)
    exp = next(e for e in r.pool if e.kind == "probe-sine_probe")
    from checks import check_call

    done = r.execute(exp)
    for call, code, outdir in done:
        assert check_call(call, code, outdir) is None
    call, code, outdir = next(d for d in done if d[0].command == "classical")
    _edit_report(outdir, lambda rep: rep["results"].update(status="no_solution_at(2)"))
    assert "no_solution_at(2)" in check_call(call, code, outdir)


def test_absent_target_is_reported_absent_not_zero(tmp_path, monkeypatch):
    # As if a refactor renamed propagator.evolve: its listed metrics must vanish, not read 0.
    targets = [(n, m, "evolve_renamed" if n == "propagator.evolve" else a) for n, m, a in tracer.SPAN_TARGETS]
    monkeypatch.setattr(tracer, "SPAN_TARGETS", targets)
    r = tiny_run("evolve_1024", tmp_path)
    out = run.per_layer(args_for("evolve_1024"), r)
    assert out["detail"]["absent"] == ["propagator.evolve"]
    metrics = out["result"]["metrics"]
    assert not [k for k in metrics if k.startswith("propagator.evolve.")]
    assert "propagator.build_kernel.self_s" in metrics


def test_tracer_restores_every_binding():
    run.import_program()
    import dtqm.action
    import dtqm.cli
    import dtqm.correspondence
    import dtqm.propagator

    before = (dtqm.cli.build_kernel, dtqm.correspondence.evolve, dtqm.cli.np, dtqm.action.GaugedAction.ds_dy)
    t = tracer.Tracer()
    t.install()
    try:
        assert dtqm.cli.build_kernel is dtqm.correspondence.build_kernel is dtqm.propagator.build_kernel
        assert dtqm.cli.build_kernel is not before[0]
        assert dtqm.cli.np.linalg.eigvals is not np.linalg.eigvals
        assert dtqm.cli.np.abs is np.abs
        model = dtqm.action.GaugedAction(
            dtqm.action.PhysicalConstants(1.0, 0.1, 1.0),
            dtqm.potentials.harmonic_potential(1.0, 1.0),
            dtqm.potentials.linear_phase(0.3),
        )
        model.ds_dy(0.1, 0.2)  # calls StandardAction.ds_dy through super()
        assert t.action_evals() == 1
    finally:
        t.uninstall()
    after = (dtqm.cli.build_kernel, dtqm.correspondence.evolve, dtqm.cli.np, dtqm.action.GaugedAction.ds_dy)
    assert all(a is b for a, b in zip(before, after))


def test_worker_spans_nest_under_the_fanning_out_span():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: time.sleep(0.05))

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(inner) for _ in range(2)]:
                f.result()

    t.span("outer", fan_out)()
    records = t.records()
    outer = next(r for r in records if r[2] == "outer")
    inners = [r for r in records if r[2] == "inner"]
    assert len({r[3] for r in inners} - {threading.get_ident()}) >= 1
    assert all(r[1] == outer[0] for r in inners)
    layers, totals = tracer.summarize(records)
    assert layers["inner"]["calls"] == 2
    assert layers["outer"]["child_s"] > layers["outer"]["total_s"] - layers["outer"]["self_s"]  # children overlapped
    assert totals["self_s"] == pytest.approx(totals["root_s"] + totals["parallel_s"], rel=1e-9)


def test_self_time_subtracts_the_union_of_children():
    records = [
        (1, 0, "a", 1, 0.0, 10.0),
        (2, 1, "b", 1, 1.0, 4.0),
        (3, 1, "b", 2, 2.0, 6.0),
        (4, 1, "c", 1, 8.0, 9.0),
    ]
    layers, totals = tracer.summarize(records)
    assert layers["a"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["parallel_s"] == pytest.approx(2.0)
    assert totals["root_s"] == 10.0


def test_tail_is_the_order_statistic_with_ten_beyond():
    samples = list(range(30))
    value, pct = run.tail_of(samples)
    assert value == 19 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_factor_is_one_at_nominal_speed_and_tracks_slowdown():
    host = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        host.factor()
    host.blas_s = [hostspeed.NOMINAL_BLAS_S] * 3
    host.python_s = [hostspeed.NOMINAL_PYTHON_S] * 3
    assert host.factor() == pytest.approx(1.0)
    host.python_s = [1.6 * hostspeed.NOMINAL_PYTHON_S] * 3
    assert host.factor() == pytest.approx(1.3)
    host.sample()
    assert len(host.blas_s) == len(host.python_s) == 4 and min(host.blas_s + host.python_s) > 0.0
    host.reset()
    assert host.blas_s == host.python_s == []


def test_benchmark_json_names_workloads_that_exist():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == WORKLOADS


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_1024", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
