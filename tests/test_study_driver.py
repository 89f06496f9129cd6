"""scripts/run_attack_studies.py: its summary table and its stop on failure.

Neither test trains a model: the table is read from hand-written reports,
and the failing run stops at its first command.
"""

import importlib.util
import json
import os

import pytest

from voltsentry import cli

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "run_attack_studies.py")


@pytest.fixture(scope="module")
def driver():
    spec = importlib.util.spec_from_file_location("run_attack_studies", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_json(path, doc):
    path.write_text(json.dumps(doc))


def test_summary_table_from_reports(driver, tmp_path):
    outcomes = {"pack1": ("swap_fdi", 3, 1800, 0.0880, 0.00390, 2.25, 3.0,
                          0, 0, 0),
                "pack2": ("replay", 2, 2700, 0.1114, 0.004444, 1.7163, 2.2884,
                          "missed", 12, 1)}
    for pack, (kind, trees, n, seconds, err, max_r, eps, onset, wdraw,
               fa) in outcomes.items():
        write_json(tmp_path / f"report_finetune_{pack}.json",
                   {"model": {"tree_counts": {"base": 400, "finetune": trees},
                              "train_size": n,
                              "test_max_abs_error_fraction": err}})
        write_json(tmp_path / f"timings_finetune_{pack}.json",
                   {"finetune_s": seconds})
        write_json(tmp_path / f"report_calibrate_{pack}_c100.json",
                   {"detection": {"max_nominal_residual_v": max_r,
                                  "epsilon_v": eps}})
        write_json(tmp_path / f"report_{pack}_c100_{kind}.json",
                   {"detection": {"kind": kind, "onset_delay_samples": onset,
                                  "withdrawal_delay_samples": wdraw,
                                  "false_alarms": fa}})
    assert driver.summary_table(tmp_path).splitlines() == [
        "pack   attack    trees     N   ft[s]   err%  max r   eps  onset  wdraw  FA",
        "-" * 74,
        "pack1  swap_fdi      3  1800   0.088  0.390   2.25  3.00      0      0   0",
        "pack2  replay        2  2700   0.111  0.444   1.72  2.29 missed     12   1",
    ]


def test_failing_first_command_stops_the_study(driver, tmp_path, monkeypatch,
                                               capsys):
    commands, run = [], cli.main

    def recording(argv):
        commands.append(argv[0])
        return run(argv)

    monkeypatch.setattr(driver.cli, "main", recording)
    assert driver.main(["--out-dir", str(tmp_path), "--seed", "-1"]) == 5
    assert commands == ["simulate"]
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "invalid-input"
    assert "pack" not in captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]
