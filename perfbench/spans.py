"""In-memory span tracing of the voltsentry public API, owned by the benchmark.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds each wrapper under *every* name that holds the original
function, in every loaded ``voltsentry`` module and in the package namespace.
Modules that import a name directly (``sentinel.predict_batch``,
``transfer.predict_model_space``, ``voltsentry.run_detector``) are therefore
traced as well as the home module.  ``uninstall`` restores each binding to the
identical original object.  Spans mark layer boundaries: a traced function
called from inside its own module records no span of its own, and its time
stays in the caller's self time.

A span is ``[name, start, end, parent, op, work, error]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation the
workload was running, and ``work`` the counts taken at the same boundary
(records simulated, rows predicted, bytes read, ...).  Spans stay in memory
until ``write`` dumps them.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("simkit", "datasets", "boost", "transfer", "sentinel", "threatgen",
           "configio", "pipeline", "reports", "cli")


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _step_toggles(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"crossings": len(result[0].events) - len(state.events)}


def _train(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"rows": len(data.x), "trees": result.n_trees}


def _finetune_rows(args, kwargs, result):
    return {"rows": len(args[1] if len(args) > 1 else kwargs["pack_train"])}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"nonzero": int(result != 0), "command": argv[0] if argv else "none"}


# Counts taken when a span closes, by function.
WORK = {
    "simkit.run_cccv_cell": lambda a, k, r: {"records": r.n_frames},
    "simkit.run_cccv_pack": lambda a, k, r: {"records": r.n_frames},
    "datasets.write_trace": _path_bytes,
    "datasets.read_trace": _path_bytes,
    "datasets.build_supervised": lambda a, k, r: {"pairs": len(r)},
    "boost.train": _train,
    "boost.predict_batch": _rows,
    "boost.predict_model_space": _rows,
    "boost.predict": lambda a, k, r: {"rows": 1},
    "transfer.finetune": _finetune_rows,
    "sentinel.run_detector": lambda a, k, r: {"crossings": r.crossings},
    "sentinel.step_detector": _step_toggles,
    "cli.main": _cli_main,
}

# Busy time of a layer: the outermost spans among these functions.
BUSY = {
    "simkit.run_s": ("simkit.run_cccv_cell", "simkit.run_cccv_pack"),
    "datasets.io_s": ("datasets.write_trace", "datasets.read_trace"),
    "datasets.build_s": ("datasets.build_supervised", "datasets.concat",
                         "datasets.check_no_leakage"),
    "boost.train_s": ("boost.train",),
    "boost.predict_s": ("boost.predict_batch", "boost.predict_model_space",
                        "boost.predict"),
    "boost.model_io_s": ("boost.save_model", "boost.load_model",
                         "boost.model_to_json", "boost.model_from_json"),
    "transfer.finetune_s": ("transfer.finetune",),
    "sentinel.step_s": ("sentinel.step_detector",),
    "sentinel.run_detector_s": ("sentinel.run_detector",),
    "threatgen.apply_s": ("threatgen.apply_scenario", "threatgen.apply_replay",
                          "threatgen.apply_swap"),
    "reports.score_s": ("reports.score_detection",),
    "reports.write_s": ("reports.write_report", "reports.write_timings"),
    "configio.read_s": ("configio.read_sim_config", "configio.read_scenario",
                        "configio.read_train_config", "configio.resolve_recipe"),
}

# Self time of a function's spans.
SELF = {
    "sentinel.step_self_s": "sentinel.step_detector",
    "sentinel.run_detector_self_s": "sentinel.run_detector",
}

# Counts: (metric, functions, key) over the outermost spans of the
# functions; key "calls" counts the spans, any other key sums that count.
COUNTS = (
    ("simkit.records", BUSY["simkit.run_s"], "records"),
    ("simkit.cell_runs", ("simkit.run_cccv_cell",), "calls"),
    ("simkit.pack_runs", ("simkit.run_cccv_pack",), "calls"),
    ("datasets.io_bytes", BUSY["datasets.io_s"], "bytes"),
    ("datasets.pairs", ("datasets.build_supervised",), "pairs"),
    ("boost.train_rows", ("boost.train",), "rows"),
    ("boost.trees", ("boost.train",), "trees"),
    ("boost.predict_calls", BUSY["boost.predict_s"], "calls"),
    ("boost.predict_rows", BUSY["boost.predict_s"], "rows"),
    ("transfer.finetune_rows", ("transfer.finetune",), "rows"),
    ("sentinel.steps", ("sentinel.step_detector",), "calls"),
    ("sentinel.crossings", ("sentinel.run_detector", "sentinel.step_detector"),
     "crossings"),
    ("threatgen.scenarios", ("threatgen.apply_scenario",), "calls"),
    ("cli.exit_nonzero", ("cli.main",), "nonzero"),
)


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def package_modules() -> list:
    """The voltsentry package and every loaded submodule."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "voltsentry"
                                    or name.startswith("voltsentry."))]


class Tracer:
    """Collects spans from wrapped voltsentry functions while active."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.op = -1
        self._stack: list = []
        self._modules: list = []
        self._patched: list = []
        self.wrapped: set = set()

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        module = name.split(".")[0]
        spans, stack, modules = self.spans, self._stack, self._modules

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call from inside the same module is that module's own work,
            # not a layer boundary: no span (simkit's per-sub-step helpers
            # alone would add millions).
            if not self.active or (modules and modules[-1] == module):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0]
            stack.append(len(spans))
            modules.append(module)
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                modules.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every binding of every public traced function."""
        import voltsentry
        from voltsentry import (boost, cli, configio, datasets,  # noqa: F401
                                pipeline, reports, sentinel, simkit,
                                threatgen, transfer)

        wrappers = {}
        for short in MODULES:
            module = getattr(voltsentry, short)
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
                self.wrapped.add(f"{short}.{name}")
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def names(self) -> set:
        return {span[0] for span in self.spans}

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "work", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer busy/self times and counts from the recorded spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]

        def outermost(names):
            """Spans of ``names`` with no ancestor among ``names``."""
            names = set(names)
            out = []
            for span in spans:
                if span[0] not in names:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    out.append(span)
            return out

        def busy(names):
            return sum(s[2] - s[1] for s in outermost(names))

        def self_time(pred):
            return sum(s[2] - s[1] - child_s[i] for i, s in enumerate(spans)
                       if pred(s[0]))

        metrics = {}
        by_module = defaultdict(set)
        for span in spans:
            by_module[span[0].split(".")[0]].add(span[0])
        for module in MODULES:
            names = by_module.get(module, set())
            metrics[f"{module}.busy_s"] = (busy(names), "s")
            metrics[f"{module}.self_s"] = (
                self_time(lambda n, m=module: n.split(".")[0] == m), "s")
            metrics[f"{module}.calls"] = (len(outermost(names)), "count")
            metrics[f"{module}.errors"] = (
                sum(s[6] for s in spans if s[0] in names), "count")
        for metric, names in BUSY.items():
            metrics[metric] = (busy(names), "s")
        for metric, name in SELF.items():
            metrics[metric] = (self_time(lambda n, t=name: n == t), "s")
        for metric, names, key in COUNTS:
            top = outermost(names)
            metrics[metric] = (len(top) if key == "calls" else
                               sum((s[5] or {}).get(key, 0) for s in top), "count")
        calls = metrics["boost.predict_calls"][0]
        metrics["boost.rows_per_call"] = (
            metrics["boost.predict_rows"][0] / calls if calls else 0.0,
            "rows/call")
        for name in sorted(n for n in self.wrapped | by_module["pipeline"]
                           if n.startswith("pipeline.")):
            metrics[f"{name}_s"] = (busy((name,)), "s")
        # cli.main dispatches to the commands inside its own module, so each
        # command's time is that of the cli.main spans running it.
        for span in outermost(("cli.main",)):
            command = (span[5] or {}).get("command", "unknown").replace("-", "_")
            total = metrics.get(f"cli.{command}_s", (0.0, "s"))[0]
            metrics[f"cli.{command}_s"] = (total + span[2] - span[1], "s")
        metrics["trace.spans"] = (len(spans), "count")
        return metrics


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Median added cost of one traced call over an untraced one, seconds."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibrate.noop", noop)
    tracer.active = True
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]
