"""Golden outputs: what a fixed set of ``dtqm`` calls print and write.

The set is the 66 calls of ``perfbench.workloads.generate`` (both workloads,
seeds 1 and 2, one cycle), the five README examples and one revival run.
Each call runs in process through ``dtqm.cli.main``. GOLDEN.json records,
per call, the exit code, the stderr text and the SHA-256 of each output
file, with the wall-clock fields stripped from ``report.json``; its header
records the numpy version and the platform. The output files are kept next to it, in
``GOLDEN-out/`` (not checked in), so that a later check can say what moved.

    python tools/golden.py            # run every call, write GOLDEN.json
    python tools/golden.py --check    # run every call again, list what differs

``--check`` exits 1 when any call differs from GOLDEN.json. For a changed CSV
it prints the largest absolute change per column, and for a changed report
the JSON paths that differ, a number with its old and new value and their
relative change, when the outputs of the written run are kept.
dtqm is imported from ``PYTHONPATH`` when it is there, else from this
checkout's ``src``: so ``PYTHONPATH=<other checkout>/src`` writes the golden
file of another version of the program, for a later ``--check`` of this one.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.extend([os.path.join(ROOT, "src"), ROOT])

import numpy as np  # noqa: E402

from dtqm import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

GOLDEN = os.path.join(ROOT, "GOLDEN.json")
KEPT = os.path.join(ROOT, "GOLDEN-out")
# Report fields that differ from run to run.
VOLATILE = ("wall_time_s",)
WORKLOADS = ("evolve_1024", "pipeline_1024")
SEEDS = (1, 2)
# One period of the free kernel at tau* (2N steps for even N): the last row of
# evolve.csv repeats row 0 to rounding.
REVIVAL = {
    "grid": {"n_points": 256, "x_min": -16.0, "spacing": 0.125},
    "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
    "action": {"kind": "standard", "potential": {"name": "zero"}},
    "run": {"x0": -3.0, "p0": 0.0, "n_steps": 512},
}


def golden_calls() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every golden call, in a fixed order."""
    calls = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, experiment in enumerate(workloads.generate(workload, seed, 1)):
                for j, call in enumerate(experiment.calls):
                    calls.append((f"{workload}-seed{seed}-{i}.{j}-{call.command}", call.command, call.config))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for command, block in re.findall(r"^### `([a-z-]+)`.*?```json\n(.*?)```", readme, re.S | re.M):
        calls.append((f"readme-{command}", command, json.loads(block)))
    calls.append(("revival-evolve", "evolve", REVIVAL))
    return calls


def _stable_report(path: str) -> bytes:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key in VOLATILE:
        report.pop(key, None)
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _digest(path: str) -> str:
    if os.path.basename(path) == "report.json":
        data = _stable_report(path)
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def run_calls(calls, workdir: str) -> list[dict]:
    """Run each call with its outputs in ``workdir/<name>``; one record per call."""
    records = []
    for name, command, config in calls:
        outdir = os.path.join(workdir, name)
        config_path = os.path.join(workdir, name + ".json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")  # every call prints its own warnings
            code = cli.main([command, "--config", config_path, "--out", outdir])
        files = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
        records.append(
            {
                "name": name,
                "command": command,
                "exit": code,
                "stderr": err.getvalue(),
                "files": {f: _digest(os.path.join(outdir, f)) for f in files},
            }
        )
    return records


def _header() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(), "platform": platform.platform()}


def _csv_columns(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}


def csv_changes(old: str, new: str) -> list[str]:
    """The largest absolute change of each CSV column that changed."""
    a, b = _csv_columns(old), _csv_columns(new)
    lines = []
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        if name not in a or name not in b or len(a[name]) != len(b[name]):
            lines.append(f"{name}: rows or presence differ")
            continue
        change = max(abs(float(x) - float(y)) for x, y in zip(a[name], b[name]))
        lines.append(f"{name}: largest change {change:.3g}")
    return lines


# Stands in for a key one side lacks, so that a key added as null differs.
_MISSING = object()


def json_paths(old, new, path: str = "") -> list[str]:
    """The paths at which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(set(old) | set(new))
        return [
            p
            for key in keys
            for p in json_paths(old.get(key, _MISSING), new.get(key, _MISSING), f"{path}.{key}" if path else key)
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for k, (x, y) in enumerate(zip(old, new)) for p in json_paths(x, y, f"{path}[{k}]")]
    return [] if old == new else [path or "."]


def _at(value, path: str):
    """The value at a path that ``json_paths`` returned."""
    for key, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", path):
        value = value.get(key, _MISSING) if key else value[int(index)]
    return value


def report_changes(old: str, new: str) -> list[str]:
    """The paths at which two reports differ; a number with its old and new value."""
    a, b = json.loads(_stable_report(old)), json.loads(_stable_report(new))
    lines = []
    for path in json_paths(a, b):
        x, y = _at(a, path), _at(b, path)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            relative = abs(y - x) / max(abs(x), abs(y))
            lines.append(f"{path}: {x!r} -> {y!r} (relative {relative:.3g})")
        else:
            lines.append(path)
    return lines


def compare(expected: list[dict], actual: list[dict], expected_dir: str | None, actual_dir: str) -> list[str]:
    """How the records of ``actual`` differ from ``expected``: one line per difference.

    Where ``expected_dir`` holds the expected run's outputs, a changed file
    is described: per CSV column, or per report path.
    """
    lines = []
    by_name = {record["name"]: record for record in actual}
    for old in expected:
        name = old["name"]
        new = by_name.pop(name, None)
        if new is None:
            lines.append(f"{name}: not run")
            continue
        for key in ("command", "exit", "stderr"):
            if old[key] != new[key]:
                lines.append(f"{name}: {key} {old[key]!r} -> {new[key]!r}")
        for f in sorted(set(old["files"]) | set(new["files"])):
            if old["files"].get(f) == new["files"].get(f):
                continue
            lines.append(f"{name}: {f} differs")
            before = os.path.join(expected_dir, name, f) if expected_dir else None
            after = os.path.join(actual_dir, name, f)
            if not (before and os.path.isfile(before) and os.path.isfile(after)):
                continue
            if f.endswith(".csv"):
                lines.extend(f"    {line}" for line in csv_changes(before, after))
            elif f == "report.json":
                lines.extend(f"    {line}" for line in report_changes(before, after))
    lines.extend(f"{name}: not in the golden file" for name in by_name)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare a fresh run with GOLDEN.json")
    args = parser.parse_args(argv)
    calls = golden_calls()
    if not args.check:
        shutil.rmtree(KEPT, ignore_errors=True)
        os.makedirs(KEPT)
        with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"header": _header(), "calls": run_calls(calls, KEPT)}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(calls)} calls to {GOLDEN}")
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if recorded["header"] != _header():
        print(f"recorded with {recorded['header']}; this run: {_header()}")
    with tempfile.TemporaryDirectory() as workdir:
        lines = compare(recorded["calls"], run_calls(calls, workdir), KEPT if os.path.isdir(KEPT) else None, workdir)
    for line in lines:
        print(line)
    print(f"{len(calls)} calls: {'no difference' if not lines else f'{len(lines)} difference lines'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
