"""scripts/bench.py: the order of the --paired runs and what they record,
and the traced-memory figure.

No layer is timed: each run returns fixed figures in place of a
subprocess.
"""

import importlib.util
import json
import os
import tracemalloc

import numpy as np
import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_alternates_and_records_each_pair(bench, tmp_path, monkeypatch):
    runs = []
    # Figures per run: the child is faster in the first and third pairs.
    figures = iter([5.0, 4.0, 3.0, 6.0, 2.0, 1.0])

    def fake_run(label, src, artifacts):
        runs.append((label, src))
        return {"layer_ms": next(figures)}, {"nproc": 2}

    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--paired", "parent/src", "--src", "child/src",
                       "--pairs", "3", "--out", str(out)]) == 0
    parent, child = os.path.abspath("parent/src"), os.path.abspath("child/src")
    assert runs == [("before", parent), ("after", child),
                    ("after", child), ("before", parent),
                    ("before", parent), ("after", child)]
    entry = json.loads(out.read_text())["layers"]["layer_ms"]
    assert entry["pairs"] == [[5.0, 4.0], [6.0, 3.0], [2.0, 1.0]]
    assert entry["after_lower"] == 3
    assert entry["before_runs"] == [5.0, 6.0, 2.0]
    assert entry["after_runs"] == [4.0, 3.0, 1.0]
    assert (entry["before"], entry["after"]) == (5.0, 3.0)


@pytest.mark.parametrize("argv", [
    ["--out", "x.json"],
    ["--out", "x.json", "--label", "after", "--paired", "p"],
    ["--out", "x.json", "--paired", "p", "--pairs", "0"],
])
def test_bad_mode_rejected(bench, argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2


def test_traced_peak_of_one_call(bench):
    """The peak of what the call allocates, not what it keeps; tracing
    stops afterwards, so it slows no later timing."""
    def call():
        a = np.ones(1 << 19)  # 4 MiB, freed before the next one
        del a
        return np.ones(1 << 18)  # 2 MiB

    assert 4.0 <= bench.traced_peak_mb(call) < 4.1
    assert not tracemalloc.is_tracing()


def test_traced_peak_stops_tracing_on_error(bench):
    def fail():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        bench.traced_peak_mb(fail)
    assert not tracemalloc.is_tracing()
