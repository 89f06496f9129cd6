"""Reference implementations the simkit module must match bit for bit.

These are the simulator loops that ``voltsentry.simkit`` replaced with its
once-per-step loops, in their per-call style: ``step_cell`` and
``cell_voltage`` (with their finiteness checks), ``run_cccv_cell``, which
builds a frozen ``CellState`` on every step and solves the charging current
twice on each recorded step's state, and ``_PackModel``/``run_cccv_pack``,
which recompute the module offsets up to four times per sub-step state.
They are the oracles of the equivalence properties in ``test_simkit.py``.
``run_cccv_cell`` steps a second in CC or rest as one 1 s step where that
is exact; ``run_cccv_cell_substeps``, the rule before it, steps every
second in ten 0.1 s sub-steps and is the oracle of the corpus's bytes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from voltsentry.simkit import (CccvPolicy, CellParams, NoiseSpec, PackConfig,
                               SolverError, TelemetryTrace, _quantize,
                               _require_finite)


@dataclass(frozen=True)
class CellState:
    """Dynamic state of one cell: bulk SOC, RC voltage, surface SOC."""

    soc: float
    v_rc: float = 0.0
    soc_surf: float | None = None

    def __post_init__(self):
        if self.soc_surf is None:
            object.__setattr__(self, "soc_surf", self.soc)
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError("soc must be in [0, 1]")
        if not 0.0 <= self.soc_surf <= 1.0:
            raise ValueError("soc_surf must be in [0, 1]")


def step_cell(state: CellState, params: CellParams, i_cell: float, dt: float) -> CellState:
    """Advance one cell by dt seconds at constant current (exact update).

    SOC integrates the current (clamped to [0, 1] afterwards), the RC state
    relaxes exponentially toward ``i * r1``, and the surface SOC tracks the
    linearly-moving bulk SOC with time constant ``diff_tau_s``.
    """
    _require_finite("i_cell", i_cell)
    _require_finite("dt", dt)
    if not dt > 0:
        raise ValueError("dt must be positive")

    d_soc = i_cell * dt / 3600.0 / params.capacity_ah
    soc_new = min(max(state.soc + d_soc, 0.0), 1.0)

    if params.r1_ohm > 0.0:
        tau1 = params.r1_ohm * params.c1_f
        v_inf = i_cell * params.r1_ohm
        v_rc_new = v_inf + (state.v_rc - v_inf) * math.exp(-dt / tau1)
    else:
        v_rc_new = 0.0

    # Exact solution of d(surf)/dt = (soc(t) - surf)/tau with soc(t) linear.
    tau_d = params.diff_tau_s
    rate = d_soc / dt
    decay = math.exp(-dt / tau_d)
    surf_new = (state.soc + d_soc) - rate * tau_d + (
        state.soc_surf - state.soc + rate * tau_d) * decay
    surf_new = min(max(surf_new, 0.0), 1.0)

    return CellState(soc=soc_new, v_rc=v_rc_new, soc_surf=surf_new)


def cell_voltage(state: CellState, params: CellParams, i_cell: float) -> float:
    """Terminal voltage at the given applied current."""
    _require_finite("i_cell", i_cell)
    return params.ocv(state.soc_surf) + i_cell * params.r0_ohm + state.v_rc

def run_cccv_cell(params: CellParams, policy: CccvPolicy, init_soc: float,
                  noise: NoiseSpec = NoiseSpec(), seed: int = 0,
                  name: str = "") -> TelemetryTrace:
    """Simulate one CCCV charge of a single cell, recorded at 1 Hz.

    CC holds ``c_rate * capacity`` amps until the noise-free terminal voltage
    reaches ``policy.v_max``; CV then solves the current each sub-step so the
    terminal voltage sits at the setpoint, tapering until the cutoff C-rate,
    after which the cell rests at zero current for the remaining duration.
    Measurement noise only touches the recorded voltages.

    A second in CC or rest is one 1 s step, kept when both SOCs stay
    strictly inside (0, 1) and, in CC, the terminal voltage at the end of
    the second is below v_max; any other second is ten 0.1 s sub-steps
    from its starting state, as in ``run_cccv_cell_substeps``.
    """
    return _recorded(*_cell_charge(params, policy, init_soc, True),
                     noise, seed, name)


def run_cccv_cell_substeps(params: CellParams, policy: CccvPolicy,
                           init_soc: float, noise: NoiseSpec = NoiseSpec(),
                           seed: int = 0, name: str = "") -> TelemetryTrace:
    """``run_cccv_cell`` with every second ten 0.1 s sub-steps."""
    return _recorded(*_cell_charge(params, policy, init_soc, False),
                     noise, seed, name)


@functools.lru_cache(maxsize=64)
def _cell_charge(params: CellParams, policy: CccvPolicy, init_soc: float,
                 one_second_steps: bool) -> tuple:
    """The noise-free recorded currents and voltages of a CCCV cell charge.

    Cached, since it is a pure function of its arguments and the corpus
    tests draw several seeds' noise on the same 36 charges; the arrays are
    never written.
    """
    if not 0.0 <= init_soc < 1.0:
        raise ValueError("init_soc must be in [0, 1)")
    if float(params.ocv(init_soc)) >= policy.v_max:
        raise ValueError(
            f"infeasible policy: OCV({init_soc}) >= v_max {policy.v_max}")

    i_cc = policy.c_rate * params.capacity_ah
    i_cut = policy.taper_cutoff_c * params.capacity_ah
    n_records = int(policy.duration_s) + 1
    sub_dt = 0.1
    state = CellState(soc=init_soc)
    phase = "cc"

    i_out = np.empty(n_records)
    v_out = np.empty(n_records)

    def current_now(st: CellState, step: int) -> float:
        nonlocal phase
        if phase == "cc":
            if cell_voltage(st, params, i_cc) >= policy.v_max:
                phase = "cv"
            else:
                return i_cc
        if phase == "cv":
            if params.r0_ohm <= 0.0:
                raise SolverError("cannot regulate voltage with r0 = 0", step)
            i_cv = (policy.v_max - params.ocv(st.soc_surf) - st.v_rc) / params.r0_ohm
            if i_cv < -1e-9:
                raise SolverError("CV solve produced negative current", step)
            i_cv = min(max(i_cv, 0.0), i_cc)
            if i_cv <= i_cut:
                phase = "rest"
            else:
                return i_cv
        return 0.0

    sub_step = 0
    for k in range(n_records):
        i_k = current_now(state, sub_step)
        i_out[k] = i_k
        v_out[k] = cell_voltage(state, params, i_k)
        if k == n_records - 1:
            break
        if one_second_steps and phase != "cv":
            whole = step_cell(state, params, i_k, 1.0)
            if (0.0 < whole.soc < 1.0 and 0.0 < whole.soc_surf < 1.0
                    and (phase == "rest"
                         or cell_voltage(whole, params, i_cc) < policy.v_max)):
                state = whole
                sub_step += 10
                continue
        for _ in range(10):
            i_sub = current_now(state, sub_step)
            state = step_cell(state, params, i_sub, sub_dt)
            sub_step += 1
    return i_out, v_out


def _recorded(i_out: np.ndarray, v_out: np.ndarray, noise: NoiseSpec,
              seed: int, name: str) -> TelemetryTrace:
    """The trace of a noise-free charge, its voltages noised and quantized."""
    n_records = i_out.size
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_records)
    v_rec = v_out * (1.0 + noise.rel_sigma * z)
    return TelemetryTrace(
        t_s=np.arange(n_records, dtype=float), i_pack_a=i_out,
        v_modules=_quantize(v_rec)[:, None],
        i_modules=i_out[:, None].copy(), name=name)


class _PackModel:
    """Vectorized state of q representative branches of series cells."""

    def __init__(self, config: PackConfig, cell: CellParams, init_soc: float):
        q, s = config.q, config.series_cells
        rng = np.random.default_rng(config.rng_seed)
        sigma = config.heterogeneity_sigma
        # Draw order is part of the determinism contract: capacity then r0.
        cap_f = np.maximum(1.0 + sigma * rng.standard_normal((q, s)), 0.5)
        r0_f = np.maximum(1.0 + sigma * rng.standard_normal((q, s)), 0.0)
        self.capacity = cell.capacity_ah * cap_f
        self.r0 = cell.r0_ohm * r0_f
        self.cell = cell
        self.config = config
        self.branches = config.branches_per_module
        self.r_link = np.array(config.interconnect_ohm)
        self.soc = np.full((q, s), float(init_soc))
        self.v_rc = np.zeros((q, s))
        self.surf = np.full((q, s), float(init_soc))
        socs = np.array([p for p, _ in cell.ocv_knots])
        volts = np.array([v for _, v in cell.ocv_knots])
        self._ocv_socs = socs
        self._ocv_volts = volts

    def _ocv(self, surf: np.ndarray) -> np.ndarray:
        return np.interp(surf, self._ocv_socs, self._ocv_volts)

    def module_offsets(self):
        """Per-module zero-current voltage sum and effective resistance."""
        o = (self._ocv(self.surf) + self.v_rc).sum(axis=1)
        r_mod = self.r0.sum(axis=1) / self.branches
        return o, r_mod

    def split(self, i_pack: float):
        """Exact parallel-bus current split for a given pack current."""
        o, r_mod = self.module_offsets()
        r_tot = r_mod + self.r_link
        inv = 1.0 / r_tot
        v_bus = (i_pack + float(np.dot(o, inv))) / float(inv.sum())
        i_mod = (v_bus - o) * inv
        v_mod = o + i_mod * r_mod
        return v_bus, i_mod, v_mod

    def cv_current(self, setpoint: float) -> float:
        """Pack current that places the bus voltage at the setpoint."""
        o, r_mod = self.module_offsets()
        r_tot = r_mod + self.r_link
        return float(np.sum((setpoint - o) / r_tot))

    def advance(self, i_mod: np.ndarray, dt: float) -> None:
        """Advance every cell by dt at its branch current (exact updates)."""
        i_cell = (i_mod / self.branches)[:, None]
        d_soc = i_cell * dt / 3600.0 / self.capacity
        soc_new = np.clip(self.soc + d_soc, 0.0, 1.0)

        r1, c1 = self.cell.r1_ohm, self.cell.c1_f
        if r1 > 0.0:
            v_inf = i_cell * r1
            self.v_rc = v_inf + (self.v_rc - v_inf) * math.exp(-dt / (r1 * c1))
        else:
            self.v_rc = np.zeros_like(self.v_rc)

        tau_d = self.cell.diff_tau_s
        rate = d_soc / dt
        decay = math.exp(-dt / tau_d)
        self.surf = np.clip(
            (self.soc + d_soc) - rate * tau_d
            + (self.surf - self.soc + rate * tau_d) * decay, 0.0, 1.0)
        self.soc = soc_new


def run_cccv_pack(config: PackConfig, cell: CellParams, policy: CccvPolicy,
                  init_soc: float, noise: NoiseSpec = NoiseSpec(),
                  name: str = "") -> TelemetryTrace:
    """Simulate a CCCV charge of a pack, recorded at 1 Hz.

    CC applies ``c_rate * pack capacity`` until the bus voltage reaches the
    pack setpoint ``series_cells * policy.v_max``; CV then holds the bus at
    the setpoint until the pack current tapers to the cutoff C-rate.  The
    noise seed derives from (rng_seed, policy, init_soc) so that identical
    inputs reproduce byte-identical traces while distinct policies on the
    same pack get independent noise.
    """
    if not 0.0 <= init_soc < 1.0:
        raise ValueError("init_soc must be in [0, 1)")
    if float(cell.ocv(init_soc)) >= policy.v_max:
        raise ValueError(
            f"infeasible policy: OCV({init_soc}) >= v_max {policy.v_max}")

    model = _PackModel(config, cell, init_soc)
    setpoint = config.series_cells * policy.v_max
    capacity = (cell.capacity_ah * config.parallel_modules
                * config.branches_per_module)
    i_cc = policy.c_rate * capacity
    i_cut = policy.taper_cutoff_c * capacity
    n_records = int(policy.duration_s) + 1
    sub_dt = 0.1
    phase = "cc"

    t_out = np.arange(n_records, dtype=float)
    i_out = np.empty(n_records)
    v_out = np.empty((n_records, config.q))
    im_out = np.empty((n_records, config.q))

    def pack_current(step: int) -> float:
        nonlocal phase
        if phase == "cc":
            v_bus, _, _ = model.split(i_cc)
            if v_bus >= setpoint:
                phase = "cv"
            else:
                return i_cc
        if phase == "cv":
            i_cv = model.cv_current(setpoint)
            if i_cv < -1e-9:
                raise SolverError("CV solve produced negative pack current", step)
            if not math.isfinite(i_cv):
                raise SolverError("CV solve diverged", step)
            i_cv = min(max(i_cv, 0.0), i_cc)
            if i_cv <= i_cut:
                phase = "rest"
            else:
                return i_cv
        return 0.0

    sub_step = 0
    for k in range(n_records):
        i_k = pack_current(sub_step)
        _, i_mod, v_mod = model.split(i_k)
        i_out[k] = i_k
        v_out[k] = v_mod
        im_out[k] = i_mod
        if k == n_records - 1:
            break
        for _ in range(10):
            i_sub = pack_current(sub_step)
            _, i_mod_sub, _ = model.split(i_sub)
            model.advance(i_mod_sub, sub_dt)
            sub_step += 1

    seed_key = [config.rng_seed, int(round(policy.c_rate * 1000)),
                int(round(init_soc * 1000)), int(policy.duration_s)]
    rng = np.random.default_rng(seed_key)
    z = rng.standard_normal((n_records, config.q))
    v_rec = v_out * (1.0 + noise.rel_sigma * z)
    return TelemetryTrace(
        t_s=t_out, i_pack_a=i_out, v_modules=_quantize(v_rec),
        i_modules=im_out, name=name)
