#!/usr/bin/env python3
"""End-to-end attack-detection study, run through the voltsentry CLI.

Runs the README's CLI flow with the shipped configs/: simulates the cell
corpus, trains the base one-step voltage predictor, then for each pack
simulates its three charges, fine-tunes the base model, calibrates the
residual threshold on the nominal 1C charge and scores the pack's attack
scenario (module-voltage swap on pack 1, partial replay on pack 2) at
that threshold.  The first command that fails stops the study with its
exit code.

The artifacts are the CLI's, flat under --out-dir (the corpus CSVs under
--out-dir/corpus).  The summary table is read back from the reports and
the fine-tune timing sidecars.
"""

import argparse
import contextlib
import io
import json
import os
import sys

from voltsentry import cli, pipeline

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")
# (pack, its attack scenario config, the scenario's kind)
STUDIES = (("pack1", "swap_pack1", "swap_fdi"), ("pack2", "replay_pack2", "replay"))


def _read(out_dir, name) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*commands) -> int:
    """Run CLI commands in order, dropping the report paths they print;
    returns 0, or the exit code of the first that fails."""
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            return code
    return 0


def _run_pack(pack, scenario, out_dir) -> int:
    cfg = lambda name: os.path.join(CONFIGS, name + ".ini")  # noqa: E731
    at = lambda name: os.path.join(out_dir, name)  # noqa: E731
    test, model = at(f"{pack}_c100.csv"), at(f"model_{pack}.json")
    code = _run(
        *(["simulate", "--config", cfg(f"{pack}_{rate}"), "--out-dir", out_dir]
          for rate in ("c080", "c120", "c100")),
        ["finetune", "--model", at("model_base.json"), "--config", cfg(f"{pack}_c100"),
         "--traces", at(f"{pack}_c080.csv"), at(f"{pack}_c120.csv"),
         "--test-trace", test, "--recipe", pack, "--out-dir", out_dir],
        ["calibrate", "--model", model, "--trace", test, "--out-dir", out_dir])
    if code:
        return code
    calibrated = _read(out_dir, f"report_calibrate_{pack}_c100.json")["detection"]
    return _run(["attack-eval", "--model", model, "--trace", test, "--scenario",
                 cfg(scenario), "--epsilon", repr(calibrated["epsilon_v"]),
                 "--out-dir", out_dir])


def run_study(out_dir, seed=pipeline.CANONICAL_CORPUS_SEED) -> int:
    """Run the study's CLI commands in order; returns 0, or the exit code
    of the first command that fails, having run nothing after it."""
    corpus = os.path.join(out_dir, "corpus")
    print(f"[1/4] generating cell corpus (seed {seed}) ...")
    code = _run(["simulate", "--config", os.path.join(CONFIGS, "cell_corpus.ini"),
                 "--seed", str(seed), "--out-dir", corpus])
    if not code:
        print("[2/4] training base model ...")
        code = _run(["train-base", "--corpus-dir", corpus, "--out-dir", out_dir])
    if code:
        return code
    base = _read(out_dir, "report_train_base.json")
    train_s = _read(out_dir, "timings_train_base.json")["train_s"]
    err_pct = 100 * base["model"]["val_max_abs_error_fraction"]
    print(f"      {base['inputs']['n_train']} train / {base['inputs']['n_val']} val "
          f"pairs, {train_s:.1f} s, val max abs err {err_pct:.3f}% of the cell's v_max")
    for step, (pack, scenario, _) in enumerate(STUDIES, start=3):
        print(f"[{step}/4] {pack}: fine-tune + {scenario} study ...")
        code = _run_pack(pack, scenario, out_dir)
        if code:
            return code
    return 0


def summary_table(out_dir) -> str:
    """The study's summary, one row per pack, from the CLI's outputs."""
    header = (f"{'pack':6s} {'attack':9s} {'trees':>5s} {'N':>5s} "
              f"{'ft[s]':>7s} {'err%':>6s} {'max r':>6s} {'eps':>5s} "
              f"{'onset':>6s} {'wdraw':>6s} {'FA':>3s}")
    lines = [header, "-" * len(header)]
    for pack, _, kind in STUDIES:
        ft = _read(out_dir, f"report_finetune_{pack}.json")["model"]
        seconds = _read(out_dir, f"timings_finetune_{pack}.json")["finetune_s"]
        cal = _read(out_dir, f"report_calibrate_{pack}_c100.json")["detection"]
        det = _read(out_dir, f"report_{pack}_c100_{kind}.json")["detection"]
        lines.append(
            f"{pack:6s} {kind:9s} {ft['tree_counts']['finetune']:5d} "
            f"{ft['train_size']:5d} {seconds:7.3f} "
            f"{100 * ft['test_max_abs_error_fraction']:6.3f} "
            f"{cal['max_nominal_residual_v']:6.2f} {cal['epsilon_v']:5.2f} "
            f"{det['onset_delay_samples']!s:>6s} "
            f"{det['withdrawal_delay_samples']!s:>6s} {det['false_alarms']:3d}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out/study")
    parser.add_argument("--seed", type=int,
                        default=pipeline.CANONICAL_CORPUS_SEED,
                        help="cell corpus seed")
    args = parser.parse_args(argv)
    code = run_study(args.out_dir, args.seed)
    if code:
        return code
    print("\n" + summary_table(args.out_dir))
    print(f"\nartifacts under {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
