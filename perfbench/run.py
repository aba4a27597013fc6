"""Closed-loop benchmark of the dtqm CLI on seeded experiment streams.

    python3 perfbench/run.py --workload evolve_1024 --seed 1 --seconds 45 --trace 0

One client runs one experiment at a time through ``dtqm.cli.main``
in-process, the next one sent when the previous returns. The program sees
only the generated JSON configs. Every experiment's exit code, report and
CSV are checked by ``checks.py``. With ``--trace 0`` the run reports the
end-to-end metrics, its timings scaled to a nominal host speed by
``hostspeed.py``; with ``--trace 1`` it alternates untraced and traced
passes over one cycle of the workload and reports per-layer metrics from
``tracer.py``. ``--workload all`` runs every workload, each in its own
process, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the environment block and the details behind the metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Experiments generated per run; the timed loop wraps around the pool.
POOL_CYCLES = 8
# Set-up is repeated in this many fresh processes (this one included) and
# the median reported, so one slow import does not decide setup_s.
SETUP_ROUNDS = 5
# A child set-up round gets this long before the run is declared broken.
CHILD_TIMEOUT_S = 60


def metric_names(kind: str) -> list[str]:
    """The ``end_to_end`` or ``per_layer`` metric names BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


class SetupError(Exception):
    pass


def import_program():
    """Import dtqm from this checkout's ``src``, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "dtqm", "cli.py")):
        raise SetupError(f"no dtqm sources under {SRC}")
    sys.path.insert(0, SRC)
    import dtqm.cli
    import dtqm.config

    if not os.path.abspath(dtqm.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported dtqm from {dtqm.__file__}, not from {SRC}")
    return dtqm


# --- set-up -----------------------------------------------------------------------


class Run:
    """Generated experiments, their config files and the program they run against."""

    def __init__(self, workload: str, seed: int, size: str, workdir: str, n_cycles: int = POOL_CYCLES):
        self.dtqm = import_program()
        self.workdir = workdir
        os.environ["DTQM_THREADS"] = str(workloads.SWEEP_THREADS)
        self.pool = workloads.generate(workload, seed, n_cycles, size)
        self.cycle = self.pool[: workloads.cycle_length(workload)]
        self._write_configs()
        self._n_out = 0

    def _write_configs(self):
        confdir = os.path.join(self.workdir, "configs")
        os.makedirs(confdir, exist_ok=True)
        for i, exp in enumerate(self.pool):
            for j, call in enumerate(exp.calls):
                call.path = os.path.join(confdir, f"e{i:03d}_{j}_{call.command}.json")
                with open(call.path, "w", encoding="utf-8") as fh:
                    json.dump(call.config, fh, indent=1)
                try:
                    self.dtqm.config.load_config(call.path, call.command)
                except self.dtqm.config.ConfigError as exc:
                    raise SetupError(f"generated config {call.path} is invalid: {exc}") from exc

    def execute(self, exp):
        """Run one experiment's calls in order; return [(call, exit code, outdir)]."""
        done = []
        self._n_out += 1
        for j, call in enumerate(exp.calls):
            outdir = os.path.join(self.workdir, "out", f"{self._n_out:05d}_{j}")
            try:
                # Looked up on each call so that a traced cli.main is the one run.
                code = self.dtqm.cli.main([call.command, "--config", call.path, "--out", outdir])
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # an internal fault is a failed experiment, not a crash
                code = f"{type(exc).__name__}: {exc}"
            done.append((call, code, outdir))
        return done

    def warm_up(self):
        """One untimed, checked experiment per command the workload uses."""
        seen = set()
        for exp in self.pool:
            commands = {c.command for c in exp.calls}
            if commands <= seen:
                continue
            seen |= commands
            for call, code, outdir in self.execute(exp):
                problem = checks.check_call(call, code, outdir)
                if problem:
                    raise SetupError(f"warm-up {exp.kind} failed: {problem}")


def verify(executed) -> list[str | None]:
    """Check every call of every executed experiment: per experiment None, or its problems."""
    verdicts = []
    for exp, calls in executed:
        problems = [p for p in (checks.check_call(call, code, outdir) for call, code, outdir in calls) if p]
        verdicts.append(f"{exp.kind}: {'; '.join(problems)}" if problems else None)
    return verdicts


# --- measurement ------------------------------------------------------------------


def tail_of(samples):
    """Highest order statistic with at least ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_loop(run: Run, seconds: float, host: hostspeed.HostSpeed):
    """Run whole cycles of the pool, stopping at the cycle end nearest to ``seconds``.

    Whole cycles keep the mix of experiment kinds, and with it the
    distribution the median and tail are taken from, the same in every run.
    The host speed is sampled after each experiment, outside its timing.
    Returns the executed experiments and their wall and CPU times.
    """
    executed, walls, cpus = [], [], []
    start = time.perf_counter()
    k = len(run.cycle)
    i = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(k):
            exp = run.pool[i % len(run.pool)]
            t0, c0 = time.perf_counter(), time.process_time()
            calls = run.execute(exp)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            executed.append((exp, calls))
            host.sample()
            i += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - cycle_start) >= seconds:
            break
    return executed, walls, cpus


def child_setup_rounds(args, host: hostspeed.HostSpeed) -> list[float]:
    """Set-up times of fresh processes, with the host speed sampled around each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    rounds = []
    for _ in range(SETUP_ROUNDS - 1):
        host.sample()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"set-up round took longer than {CHILD_TIMEOUT_S} s") from exc
        host.sample()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"set-up round failed: {proc.stderr.strip()[-500:]}")
        rounds.append(float(json.loads(lines[-1])["setup_s"]))
    return rounds


def environment(cpu_s=None, wall_s=None) -> dict:
    """Versions, BLAS build, CPU and the thread settings the run used."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DTQM_THREADS")
        },
    }
    if cpu_s is not None:
        env["cpu_s_per_experiment_p50"] = statistics.median(cpu_s)
        env["wall_s_per_experiment_p50"] = statistics.median(wall_s)
    return env


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _cpu_model() -> str | None:
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cpu_caches() -> dict:
    """Cache sizes of CPU 0, keyed like ``L1d`` and ``L3u``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            d = os.path.join(base, entry)
            caches[f"L{_read(os.path.join(d, 'level'))}{_read(os.path.join(d, 'type'))[0].lower()}"] = _read(os.path.join(d, "size"))
    except OSError:
        pass
    return caches


def end_to_end(args, run: Run, setup_s: float) -> dict:
    # Set-up is timed just before the timed window, under its own host factor.
    host = hostspeed.HostSpeed()
    setup_rounds = [setup_s] + child_setup_rounds(args, host)
    setup_host = host.summary()
    host.reset()
    executed, walls, cpus = timed_loop(run, args.seconds, host)
    verdicts = verify(executed)
    failures = [v for v in verdicts if v]
    attempted = len(executed)
    # Throughput of each whole cycle, verified experiments only; the median
    # over cycles, so that one cycle caught in a host stall does not decide it.
    size = len(run.cycle)
    cycles = [sum(walls[i : i + size]) for i in range(0, attempted, size)]
    per_cycle = [sum(v is None for v in verdicts[i * size : (i + 1) * size]) / wall for i, wall in enumerate(cycles)]
    tail, pct = tail_of(walls)
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", f"samples_{args.workload}_seed{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump([{"kind": e.kind, "wall_s": w, "cpu_s": c} for (e, _), w, c in zip(executed, walls, cpus)], fh)
    # Wall-clock figures as measured; the metrics divide them by the host
    # factor, so that they read as seconds at the nominal host speed.
    raw = {
        "setup_s": statistics.median(setup_rounds),
        "experiments_per_s": statistics.median(per_cycle),
        "experiment_s_p50": statistics.median(walls),
        "experiment_s_tail": tail,
    }
    factor = host.factor()
    metrics = {
        "setup_s": (raw["setup_s"] / setup_host["factor"], "s"),
        "experiments_per_s": (raw["experiments_per_s"] * factor, "1/s"),
        "experiment_s_p50": (raw["experiment_s_p50"] / factor, "s"),
        "experiment_s_tail": (raw["experiment_s_tail"] / factor, "s"),
        "verified_frac": ((attempted - len(failures)) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "failed_frac": len(failures) / attempted,
        "experiment_s_tail_percentile": pct,
        "experiment_s_samples": attempted,
        "window_s": sum(cycles),
        "cycles": len(cycles),
        "experiments_per_s_window": (attempted - len(failures)) / sum(cycles),
        "setup_rounds_s": setup_rounds,
        "host": host.summary(),
        "setup_host": setup_host,
        "raw": raw,
        "failures": failures[:10],
    }
    selected = {k: v for k, v in metrics.items() if k in metric_names("end_to_end")}
    return _result(selected, attempted, len(failures), detail, environment(cpus, walls))


def per_layer(args, run: Run) -> dict:
    spans = tracer.Tracer()
    executed = []
    walls = {False: 0.0, True: 0.0}
    untraced_cpu = 0.0
    verdicts = {"complete": 0, "no_solution": 0, "non_unique": 0}
    pairs = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        # Alternate which pass goes first, so drift in host speed cancels.
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            if traced:
                spans.install()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                batch = [(exp, run.execute(exp)) for exp in run.cycle]
            finally:
                walls[traced] += time.perf_counter() - t0
                if traced:
                    spans.uninstall()
                else:
                    untraced_cpu += time.process_time() - c0
            executed.extend(batch)
            if traced:
                for _exp, calls in batch:
                    for call, _code, outdir in calls:
                        if call.command == "classical":
                            _count_verdict(verdicts, outdir)
        pairs += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - pair_start) >= args.seconds:
            break
    failures = [v for v in verify(executed) if v]

    records = spans.records()
    layers, totals = tracer.summarize(records)
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    tracer.write_spans(os.path.join(HERE, "_results", f"spans_{args.workload}_seed{args.seed}.csv"), records)

    metrics = {}
    for name in [n for n, _, _ in tracer.SPAN_TARGETS] + [tracer.EIGVALS]:
        if name in spans.absent:
            continue
        layer = layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_s": 0.0})
        metrics[f"{name}.calls"] = (layer["calls"] / pairs, "count")
        metrics[f"{name}.self_s"] = (layer["self_s"] / pairs, "s")
        metrics[f"{name}.us_per_call"] = (1e6 * layer["total_s"] / layer["calls"] if layer["calls"] else 0.0, "us")
        if name == "correspondence.hbar_sweep":
            metrics[f"{name}.overlap"] = (layer["child_s"] / layer["total_s"] if layer["total_s"] else 0.0, "ratio")
    if tracer.ACTION_EVALS not in spans.absent:
        evals = spans.action_evals()
        steps = layers.get("classical.eom_step", {}).get("calls", 0)
        metrics["action.evals"] = (evals / pairs, "count")
        if "classical.eom_step" not in spans.absent:
            metrics["action.evals_per_eom_step"] = (evals / steps if steps else 0.0, "ratio")
    for verdict, count in verdicts.items():
        metrics[f"classical.verdict.{verdict}"] = (count / pairs, "count")
    metrics["process.cpu_per_wall"] = (untraced_cpu / walls[False], "ratio")
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "ratio")
    metrics["trace.wall_s"] = (walls[True] / pairs, "s")
    metrics["trace.untraced_s"] = ((walls[True] - totals["root_s"]) / pairs, "s")
    metrics["trace.parallel_s"] = (totals["parallel_s"] / pairs, "s")
    selected = {k: v for k, v in metrics.items() if k in metric_names("per_layer")}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles_traced": pairs,
        "cycle_experiments": len(run.cycle),
        "absent": spans.absent,
        "spans": len(records),
        "failures": failures[:10],
    }
    return _result(selected, len(executed), len(failures), detail, environment())


def _count_verdict(verdicts: dict, outdir: str) -> None:
    try:
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            status = json.load(fh)["results"]["status"]
    except (OSError, ValueError, KeyError):
        return  # the checks report the missing or broken report
    for verdict in verdicts:
        if status.startswith(verdict):
            verdicts[verdict] += 1


def _result(metrics, attempted, failed, detail, env) -> dict:
    return {
        "environment": env,
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_result(out: dict) -> None:
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(out["result"]))


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        run = Run(args.workload, args.seed, "full", workdir)
        run.warm_up()
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = per_layer(args, run) if args.trace else end_to_end(args, run, setup_s)
    except (SetupError, ImportError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
