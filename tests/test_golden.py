"""The compare logic of ``tools/golden.py``, on two tiny calls, and the checked-in GOLDEN.json.

The last test reruns every golden call and holds the outputs to their
recorded SHA-256, so a change that moves an output fails tier-1. Another
numpy build may move the last bits of the outputs; GOLDEN.json's header
names the numpy version and platform it was written with.
"""

import copy
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TINY = [
    (
        "classical",
        "classical",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
            "action": {"kind": "standard", "potential": {"name": "harmonic"}},
            "run": {"x0": 0.5, "x_minus1": 0.49, "n_steps": 5},
        },
    ),
    (
        "build",
        "build",
        {
            "grid": {"n_points": 8, "x_min": -2.0, "spacing": 0.5},
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
            "action": {"kind": "standard", "potential": {"name": "zero"}},
            "run": {"max_unitarity_deviation": 1e-8},
        },
    ),
]


def _run(calls, workdir):
    os.makedirs(workdir)
    return golden.run_calls(calls, str(workdir))


def test_two_runs_of_the_same_calls_do_not_differ(tmp_path):
    first = _run(TINY, tmp_path / "a")
    second = _run(TINY, tmp_path / "b")
    assert [record["exit"] for record in first] == [0, 0]
    assert sorted(first[0]["files"]) == ["classical.csv", "report.json"]
    # The reports differ in their wall time, which the hashes leave out.
    assert golden.compare(first, second, str(tmp_path / "a"), str(tmp_path / "b")) == []


def test_a_changed_column_exit_and_report_path_are_named(tmp_path):
    moved = copy.deepcopy(TINY)
    moved[0][2]["run"]["x0"] = 0.5 + 1e-6
    moved[1][2]["run"]["max_unitarity_deviation"] = 0.0
    expected = _run(TINY, tmp_path / "a")
    actual = _run(moved, tmp_path / "b")
    lines = golden.compare(expected, actual, str(tmp_path / "a"), str(tmp_path / "b"))
    assert "classical: classical.csv differs" in lines
    assert any(line.startswith("    x: largest change ") for line in lines)
    assert "    step" not in "".join(lines)  # an unchanged column is not listed
    assert "    config.run.x0: 0.5 -> 0.500001 (relative 2e-06)" in lines
    with open(tmp_path / "a" / "classical" / "report.json") as fa, open(tmp_path / "b" / "classical" / "report.json") as fb:
        x, y = json.load(fa)["results"]["final_x"], json.load(fb)["results"]["final_x"]
    assert f"    results.final_x: {x!r} -> {y!r} (relative {abs(y - x) / max(abs(x), abs(y)):.3g})" in lines
    assert any(line.startswith("build: exit 0 -> 1") for line in lines)
    # Without the expected run's outputs, a changed file is only named.
    assert "classical: classical.csv differs" in golden.compare(expected, actual, None, str(tmp_path / "b"))


def test_a_key_added_as_null_is_named():
    assert golden.json_paths({"kernel": {"q": 1}}, {"kernel": {"q": 1, "q_offset": None}}) == ["kernel.q_offset"]
    assert golden.json_paths({"q": None}, {}) == ["q"]
    assert golden.json_paths({"q": None}, {"q": None}) == []


def test_checked_in_golden_outputs_reproduce(tmp_path):
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    actual = golden.run_calls(golden.golden_calls(), str(tmp_path))
    assert golden.compare(recorded["calls"], actual, None, str(tmp_path)) == []
