"""Reduced-order CCCV charging simulator for cells and multi-module packs.

The cell model tracks three states: bulk state of charge, a first-order RC
polarization voltage, and a surface-equivalent SOC that lags the bulk SOC
with a diffusion time constant.  Terminal voltage is

    v = OCV(soc_surf) + i * r0 + v_rc

with OCV linearly interpolated from a monotone knot table.  Charging current
is positive.  All state updates use the exact closed-form solution of the
linear ODEs over a step with constant current, so one macro step equals any
number of sub-steps up to float roundoff.

A pack is q parallel modules, each made of `branches_per_module` identical
parallel branches of `series_cells` cells, behind per-module interconnect
resistances to one charger bus; the current split is the exact solution of
the parallel constraint.  The recorded module voltage is the bus voltage
minus that module's interconnect drop, which gives packs their stable
module voltage ordering.

Both CCCV loops step through one cell update kernel, ``_cell_update``, and
record at 1 Hz.  The cell steps 1 s at a time where the current is
constant (CC and rest) and 0.1 s at a time in the second that switches to
CV and in CV (run_cccv_cell).  The pack steps 0.1 s at a time throughout,
since its current split changes at every sub-step; it calls the kernel on
its (q, s) state arrays, whose augmented assignments update them in place,
and only the final clamp to [0, 1] is chosen by form.  Small but
representable module resistances are accepted, yet the run is unstable
for them, because each sub-step's current split is computed once and
held: with r0 = 0 and links of 1e-6 ohm, a 3-module pack charging from
SOC 0.3 at 1 C stops within a few steps with SolverError ("CV solve
produced negative pack current") where it should stay in CC.  A recorded
step's current and split also drive its first sub-step, which starts from
the same state.  Every float operation is the one a per-call evaluation of
the same stepping rule would make, in the same order, so the traces are
bit-identical to it; the tests keep the per-call loops as their oracle.
Parameters are checked once, when the dataclasses are built: every field
must be finite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

# Default knot table: generic NMC-style curve, strictly increasing.
DEFAULT_OCV_KNOTS = (
    (0.00, 3.000),
    (0.05, 3.250),
    (0.10, 3.420),
    (0.20, 3.550),
    (0.30, 3.620),
    (0.40, 3.670),
    (0.50, 3.720),
    (0.60, 3.780),
    (0.70, 3.850),
    (0.80, 3.940),
    (0.90, 4.060),
    (1.00, 4.200),
)


class SolverError(RuntimeError):
    """Charging regulation failed; carries the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _require_finite_fields(obj, *names: str) -> None:
    for name in names:
        _require_finite(name, getattr(obj, name))


def _require_finite_drops(cell: "CellParams", i_max: float) -> None:
    """Reject a cell current ``i_max`` that is not finite, or whose product
    with r0_ohm or r1_ohm overflows, before any step rather than as
    non-finite voltages at the end.  Python floats overflow to inf without
    a warning."""
    _require_finite("i_cell", i_max)
    for name in ("r0_ohm", "r1_ohm"):
        if not math.isfinite(i_max * getattr(cell, name)):
            raise ValueError(f"cell current {i_max!r} A times {name} "
                             f"{getattr(cell, name)!r} overflows")


@dataclass(frozen=True)
class CellParams:
    """Electrical parameters of a single cell."""

    capacity_ah: float = 5.0
    r0_ohm: float = 0.018
    r1_ohm: float = 0.012
    c1_f: float = 2500.0
    diff_tau_s: float = 45.0
    ocv_knots: tuple = DEFAULT_OCV_KNOTS
    v_max: float = 4.2

    def __post_init__(self):
        _require_finite_fields(self, "capacity_ah", "r0_ohm", "r1_ohm", "c1_f",
                               "diff_tau_s", "v_max")
        _require_finite("ocv_knots", *(x for knot in self.ocv_knots for x in knot))
        if not self.capacity_ah > 0:
            raise ValueError("capacity_ah must be positive")
        if self.r0_ohm < 0 or self.r1_ohm < 0:
            raise ValueError("resistances must be nonnegative")
        if not self.c1_f > 0:
            raise ValueError("c1_f must be positive")
        if not self.diff_tau_s > 0:
            raise ValueError("diff_tau_s must be positive")
        socs = [s for s, _ in self.ocv_knots]
        volts = [v for _, v in self.ocv_knots]
        if len(socs) < 2 or socs[0] != 0.0 or socs[-1] != 1.0:
            raise ValueError("ocv_knots must span soc 0..1")
        if any(b <= a for a, b in zip(socs, socs[1:])):
            raise ValueError("ocv_knots soc values must be strictly increasing")
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise ValueError("ocv_knots voltages must be strictly increasing")
        object.__setattr__(self, "_ocv_socs", tuple(socs))
        object.__setattr__(self, "_ocv_volts", tuple(volts))

    def ocv(self, soc_surf: float) -> float:
        """Open-circuit voltage, linear interpolation clamped to the table ends."""
        return _interp(self._ocv_socs, self._ocv_volts, soc_surf)


def _interp(socs: tuple, volts: tuple, s: float) -> float:
    """Linear interpolation in a knot table, clamped to the table ends."""
    if s <= socs[0]:
        return volts[0]
    if s >= socs[-1]:
        return volts[-1]
    j = bisect_right(socs, s)
    frac = (s - socs[j - 1]) / (socs[j] - socs[j - 1])
    return volts[j - 1] + frac * (volts[j] - volts[j - 1])


@dataclass(frozen=True)
class PackConfig:
    """Pack topology and generation knobs.

    ``interconnect_ohm`` is the per-module series resistance between the
    module terminals and the shared charger bus.  A scalar applies to every
    module (identical modules); a sequence gives one value per module, which
    is how the canonical packs obtain their stable ascending voltage
    ordering.  ``heterogeneity_sigma`` is the relative std-dev of the
    multiplicative per-cell perturbation applied to capacity and r0, drawn
    from ``rng_seed``.
    """

    name: str
    parallel_modules: int
    branches_per_module: int
    series_cells: int
    heterogeneity_sigma: float = 0.01
    rng_seed: int = 0
    interconnect_ohm: float | tuple = 0.0

    def __post_init__(self):
        _require_finite_fields(self, "heterogeneity_sigma")
        if self.parallel_modules < 1 or self.branches_per_module < 1 or self.series_cells < 1:
            raise ValueError("pack topology counts must be >= 1")
        if self.heterogeneity_sigma < 0:
            raise ValueError("heterogeneity_sigma must be nonnegative")
        if isinstance(self.interconnect_ohm, (int, float)):
            object.__setattr__(
                self, "interconnect_ohm",
                (float(self.interconnect_ohm),) * self.parallel_modules)
        else:
            object.__setattr__(self, "interconnect_ohm", tuple(float(r) for r in self.interconnect_ohm))
        _require_finite("interconnect_ohm", *self.interconnect_ohm)
        if len(self.interconnect_ohm) != self.parallel_modules:
            raise ValueError("interconnect_ohm needs one value per module")
        if any(r < 0 for r in self.interconnect_ohm):
            raise ValueError("interconnect resistances must be nonnegative")

    @property
    def q(self) -> int:
        return self.parallel_modules


@dataclass(frozen=True)
class CccvPolicy:
    """Constant-current / constant-voltage charging policy."""

    c_rate: float
    v_max: float = 4.2
    taper_cutoff_c: float = 0.05
    duration_s: float = 900.0

    def __post_init__(self):
        _require_finite_fields(self, "c_rate", "v_max", "taper_cutoff_c", "duration_s")
        if not self.c_rate > 0:
            raise ValueError("c_rate must be positive")
        if not 0 < self.taper_cutoff_c < self.c_rate:
            raise ValueError("taper_cutoff_c must be in (0, c_rate)")
        if not self.duration_s > 0:
            raise ValueError("duration_s must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: N(0, sigma^2) with sigma = rel_sigma * true voltage."""

    rel_sigma: float = 0.001

    def __post_init__(self):
        _require_finite_fields(self, "rel_sigma")
        if self.rel_sigma < 0:
            raise ValueError("rel_sigma must be nonnegative")


def _frozen(a, dtype=None) -> np.ndarray:
    """An immutable copy of ``a`` (as ``dtype`` if given): backed by a
    ``bytes`` buffer, so neither it nor any view of it can be made
    writable."""
    a = np.asarray(a, dtype=dtype)
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def _checked_mask(attack_mask, n: int) -> np.ndarray:
    """An immutable copy of an attack mask; ValueError unless it holds
    one 0 or 1 per frame of n."""
    mask = _frozen(attack_mask)
    if mask.shape != (n,):
        raise ValueError("trace arrays must have matching lengths: "
                         "attack_mask needs one entry per frame")
    # Every nonzero entry must be 1; a NaN is nonzero and equals nothing.
    if np.count_nonzero(mask) != np.count_nonzero(mask == 1):
        raise ValueError("attack_mask must be 0 or 1")
    return mask


@dataclass(frozen=True)
class TelemetryFrame:
    """One recorded sample: time, pack current, q module voltages.

    Every value must be finite; a NaN or infinite value raises ValueError.
    """

    t_s: float
    i_pack_a: float
    v_modules: tuple

    def __post_init__(self):
        object.__setattr__(self, "v_modules", tuple(float(v) for v in self.v_modules))
        if not all(map(math.isfinite, (self.t_s, self.i_pack_a) + self.v_modules)):
            raise ValueError("frame values must be finite")
        if self.t_s < 0:
            raise ValueError("t_s must be nonnegative")

    @property
    def q(self) -> int:
        return len(self.v_modules)


@dataclass(frozen=True, eq=False)
class TelemetryTrace:
    """Recorded charging run at 1 Hz.

    ``v_modules`` has shape (n, q).  ``i_modules`` is a noise-free per-module
    current diagnostic kept for balance checks; it is not part of the CSV
    schema.  ``attack_mask`` is set on corrupted traces: one 0 or 1 per
    frame, 1 inside the attack window; any other value raises ValueError.
    ``t_s``, ``i_pack_a`` and ``v_modules`` must be finite; a NaN or
    infinite value raises ValueError.  ``t_s`` must be nonnegative and each
    value must be the previous one plus 1 s; a gap, a duplicate or a
    reversal raises ValueError.

    A trace is an immutable value, compared by identity.  The constructor
    copies every array it is given into an immutable buffer and never
    freezes a caller's array; neither a trace's arrays nor any view of them
    can be made writable, and no attribute can be reassigned
    (``FrozenInstanceError``).  ``_memo`` is
    set only by ``sentinel``: a model object and its one-step predictions
    of this trace, which attacked traces gathered from it reuse under that
    same model.  ``_origin`` is set only by ``_gather``: the trace and the
    source map that an attacked trace was gathered from.  ``copy()``
    carries neither, nor ``descending_order``.
    """

    t_s: np.ndarray
    i_pack_a: np.ndarray
    v_modules: np.ndarray
    i_modules: np.ndarray | None = None
    attack_mask: np.ndarray | None = None
    name: str = ""
    _memo: tuple | None = field(default=None, init=False, repr=False)
    _origin: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        put = object.__setattr__  # the one way to set a frozen field
        put(self, "t_s", _frozen(self.t_s, float))
        put(self, "i_pack_a", _frozen(self.i_pack_a, float))
        put(self, "v_modules", _frozen(np.atleast_2d(self.v_modules), float))
        if self.i_modules is not None:
            put(self, "i_modules", _frozen(self.i_modules))
        n = self.t_s.shape[0]
        if self.i_pack_a.shape != (n,) or self.v_modules.shape[0] != n:
            raise ValueError("trace arrays must have matching lengths")
        if self.attack_mask is not None:
            put(self, "attack_mask", _checked_mask(self.attack_mask, n))
        if not (np.isfinite(self.t_s).all() and np.isfinite(self.i_pack_a).all()
                and np.isfinite(self.v_modules).all()):
            raise ValueError("trace values must be finite")
        if not np.all(self.t_s[1:] == self.t_s[:-1] + 1.0):
            raise ValueError("t_s must step by exactly 1 s (no gap, duplicate "
                             "or reversal)")
        if np.any(self.t_s < 0):
            raise ValueError("t_s must be nonnegative")

    @property
    def n_frames(self) -> int:
        return self.t_s.shape[0]

    @property
    def q(self) -> int:
        return self.v_modules.shape[1]

    def frame(self, k: int) -> TelemetryFrame:
        return TelemetryFrame(float(self.t_s[k]), float(self.i_pack_a[k]),
                              tuple(self.v_modules[k]))

    def copy(self) -> "TelemetryTrace":
        return replace(self)

    def _gather(self, source: np.ndarray, mask: np.ndarray,
                name: str) -> "TelemetryTrace":
        """The attacked trace: this trace's voltages taken at ``source``,
        with an attack mask and a name.

        ``source`` holds flat indices into ``v_modules`` in an integer
        array of its (n, q) shape, and ``mask`` one 0 or 1 per frame; both
        are frozen and valid by construction (threatgen.apply_scenario),
        so neither is checked.  The voltages, values of this checked trace,
        need no check, and ``t_s``, ``i_pack_a`` and ``i_modules`` are this
        trace's own immutable, checked objects.  ``_origin`` is
        ``(self, source)``, through which sentinel reuses this trace's
        predictions.
        """
        out = object.__new__(type(self))
        vars(out).update(t_s=self.t_s, i_pack_a=self.i_pack_a,
                         v_modules=_frozen(self.v_modules.ravel().take(source)),
                         i_modules=self.i_modules, attack_mask=mask, name=name,
                         _memo=None, _origin=(self, source))
        return out

    @cached_property
    def descending_order(self) -> np.ndarray:
        """Each frame's module indices by descending voltage, ties in
        module order: a read-only (n, q) array, computed once per trace.

        Row k is the stable argsort of ``-v_modules[k]``, so any slice of
        frames equals the argsort of that slice bit for bit.
        """
        return _frozen(np.argsort(-self.v_modules, axis=1, kind="stable"))


# ---------------------------------------------------------------------------
# Single-cell dynamics
# ---------------------------------------------------------------------------

def _cell_update(soc, v_rc, surf, i_cell, dt: float, capacity_ah,
                 r1_ohm: float, rc_decay: float, tau_d: float,
                 diff_decay: float) -> tuple:
    """Exact update of (soc, v_rc, surf) over dt at constant current.

    The one copy of the cell math, for one cell on floats and for a pack on
    (q, s) arrays with a (q, 1) branch current and per-cell capacities.
    The augmented assignments rebind floats and update arrays in place, so
    the pack's ``v_rc`` and ``surf`` buffers are reused; the clamp to
    [0, 1] is the only step chosen by form.  ``rc_decay`` is
    exp(-dt / (r1 * c1)) (unused when r1 = 0, where v_rc is 0.0) and
    ``diff_decay`` is exp(-dt / tau_d).
    """
    d_soc = i_cell * dt / 3600.0 / capacity_ah
    soc_new = soc + d_soc
    if r1_ohm > 0.0:
        v_inf = i_cell * r1_ohm
        v_rc -= v_inf
        v_rc *= rc_decay
        v_rc += v_inf
    else:
        v_rc = 0.0
    # Exact solution of d(surf)/dt = (soc(t) - surf)/tau with soc(t) linear:
    # surf <- (soc_new - rate * tau_d) + (surf - soc + rate * tau_d) * decay
    rate_tau = d_soc
    rate_tau /= dt
    rate_tau *= tau_d
    surf -= soc
    surf += rate_tau
    surf *= diff_decay
    surf += soc_new - rate_tau
    if isinstance(surf, float):
        return min(max(soc_new, 0.0), 1.0), v_rc, min(max(surf, 0.0), 1.0)
    soc_new.clip(0.0, 1.0, out=soc_new)
    surf.clip(0.0, 1.0, out=surf)
    return soc_new, v_rc, surf


def _decays(params: CellParams, dt: float) -> tuple:
    """(rc_decay, diff_decay) of ``_cell_update`` for a step of dt."""
    rc_decay = math.exp(-dt / (params.r1_ohm * params.c1_f)) if params.r1_ohm > 0.0 else 0.0
    return rc_decay, math.exp(-dt / params.diff_tau_s)


def _quantize(values: np.ndarray) -> np.ndarray:
    # Recorded voltages carry 6 decimals; quantizing at the source makes
    # CSV round-trips bit-exact.
    return np.round(values, 6)


_SUB_DT = 0.1  # seconds per sub-step; ten per 1 Hz record


def run_cccv_cell(params: CellParams, policy: CccvPolicy, init_soc: float,
                  noise: NoiseSpec = NoiseSpec(), seed: int = 0,
                  name: str = "") -> TelemetryTrace:
    """Simulate one CCCV charge of a single cell, recorded at 1 Hz.

    CC holds ``c_rate * capacity`` amps until the noise-free terminal voltage
    reaches ``policy.v_max``; CV then solves the current each sub-step so the
    terminal voltage sits at the setpoint, tapering until the cutoff C-rate,
    after which the cell rests at zero current for the remaining duration.
    Measurement noise only touches the recorded voltages.

    The loop steps on local floats and evaluates the OCV and solves the
    current once per step.  A second in CC or rest is one 1 s step,
    kept when no clamp engages (both SOCs end strictly inside (0, 1)) and,
    in CC, the terminal voltage at the end of the second is below v_max;
    in CC it only rises, so no sub-step in that second would have
    switched.  Otherwise the second is redone from its starting state in
    ten 0.1 s sub-steps, as is every second in CV, and the recorded step's
    current drives the first of them.  Sub-step indices (SolverError) count
    ten per second either way.  The corpus CSVs are byte-identical to
    those of sub-stepping every second; in-memory CV currents differ from
    them by under 6e-11 A.
    """
    if not 0.0 <= init_soc < 1.0:
        raise ValueError("init_soc must be in [0, 1)")
    if params.ocv(init_soc) >= policy.v_max:
        raise ValueError(
            f"infeasible policy: OCV({init_soc}) >= v_max {policy.v_max}")

    i_cc = policy.c_rate * params.capacity_ah
    _require_finite_drops(params, i_cc)
    i_cut = policy.taper_cutoff_c * params.capacity_ah
    v_max, r0, r1 = policy.v_max, params.r0_ohm, params.r1_ohm
    capacity, tau_d = params.capacity_ah, params.diff_tau_s
    rc_decay, diff_decay = _decays(params, _SUB_DT)
    rc_decay_1s, diff_decay_1s = _decays(params, 1.0)
    socs, volts = params._ocv_socs, params._ocv_volts
    n_records = int(policy.duration_s) + 1
    phase = "cc"

    def current_now(ocv: float, v_rc: float, step: int) -> float:
        nonlocal phase
        if phase == "cc":
            if ocv + i_cc * r0 + v_rc >= v_max:
                phase = "cv"
            else:
                return i_cc
        if phase == "cv":
            if r0 <= 0.0:
                raise SolverError("cannot regulate voltage with r0 = 0", step)
            i_cv = (v_max - ocv - v_rc) / r0
            if i_cv < -1e-9:
                raise SolverError("CV solve produced negative current", step)
            i_cv = min(max(i_cv, 0.0), i_cc)
            if i_cv <= i_cut:
                phase = "rest"
            else:
                return i_cv
        return 0.0

    soc = surf = float(init_soc)
    v_rc = 0.0
    ocv = _interp(socs, volts, surf)
    i_out, v_out = [], []
    sub_step = 0
    for k in range(n_records):
        i_sub = current_now(ocv, v_rc, sub_step)
        i_out.append(i_sub)
        v_out.append(ocv + i_sub * r0 + v_rc)
        if k == n_records - 1:
            break
        if phase != "cv":
            # CC or rest: the current holds for the whole second.  In CC
            # the terminal voltage only rises, so if it is below v_max at
            # the end of the second, no sub-step would have switched.
            soc_1, v_rc_1, surf_1 = _cell_update(
                soc, v_rc, surf, i_sub, 1.0, capacity, r1, rc_decay_1s, tau_d,
                diff_decay_1s)
            ocv = _interp(socs, volts, surf_1)
            if (0.0 < soc_1 < 1.0 and 0.0 < surf_1 < 1.0
                    and (phase == "rest" or ocv + i_cc * r0 + v_rc_1 < v_max)):
                soc, v_rc, surf = soc_1, v_rc_1, surf_1
                sub_step += 10
                continue
        for j in range(10):
            if j:
                i_sub = current_now(_interp(socs, volts, surf), v_rc, sub_step)
            soc, v_rc, surf = _cell_update(soc, v_rc, surf, i_sub, _SUB_DT, capacity,
                                           r1, rc_decay, tau_d, diff_decay)
            sub_step += 1
        ocv = _interp(socs, volts, surf)

    i_out = np.array(i_out)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_records)
    v_rec = np.array(v_out) * (1.0 + noise.rel_sigma * z)
    return TelemetryTrace(
        t_s=np.arange(n_records, dtype=float), i_pack_a=i_out,
        v_modules=_quantize(v_rec)[:, None], i_modules=i_out[:, None],
        name=name)


# ---------------------------------------------------------------------------
# Pack dynamics
# ---------------------------------------------------------------------------

class _PackModel:
    """Vectorized state of q representative branches of series cells.

    The cell resistances never change, so the module and total resistances
    are fixed per run; a module whose total resistance is not positive and
    finite would take an infinite share of the current, so it raises
    ValueError before any division.  So does a pack whose conductances,
    their sum or their offset-weighted sum overflow, as total resistances
    near the smallest positive floats make them.  The module offsets ``o``
    (zero-current voltage sums) and their conductance-weighted sum are computed once per
    state, at construction and after each ``advance``; the CC check, the CV
    solve and the current split of that state all share them.
    """

    def __init__(self, config: PackConfig, cell: CellParams, init_soc: float,
                 dt: float):
        q, s = config.q, config.series_cells
        rng = np.random.default_rng(config.rng_seed)
        sigma = config.heterogeneity_sigma
        # Draw order is part of the determinism contract: capacity then r0.
        cap_f = np.maximum(1.0 + sigma * rng.standard_normal((q, s)), 0.5)
        r0_f = np.maximum(1.0 + sigma * rng.standard_normal((q, s)), 0.0)
        self.capacity = cell.capacity_ah * cap_f
        self.branches = config.branches_per_module
        self.r_mod = (cell.r0_ohm * r0_f).sum(axis=1) / self.branches
        self.r_tot = self.r_mod + np.array(config.interconnect_ohm)
        if not np.all((self.r_tot > 0.0) & (self.r_tot < math.inf)):
            raise ValueError("module resistance r_mod + interconnect_ohm must be "
                             "positive and finite")
        self.dt = dt
        self.r1 = cell.r1_ohm
        self.tau_d = cell.diff_tau_s
        self.rc_decay, self.diff_decay = _decays(cell, dt)
        self._ocv_socs = np.array(cell._ocv_socs)
        self._ocv_volts = np.array(cell._ocv_volts)
        self.soc = np.full((q, s), float(init_soc))
        self.v_rc = np.zeros((q, s))
        self.surf = np.full((q, s), float(init_soc))
        # Overflowing conductances are rejected here, before any sub-step,
        # rather than simulated on non-finite currents.
        with np.errstate(over="ignore"):
            self.inv = 1.0 / self.r_tot
            self.inv_sum = float(self.inv.sum())
            self._offsets()
        if not (math.isfinite(self.inv_sum) and math.isfinite(self.o_dot)):
            raise ValueError("module conductances 1 / (r_mod + interconnect_ohm) "
                             "overflow; the module resistance is too small")

    def _offsets(self) -> None:
        self.o = (np.interp(self.surf, self._ocv_socs, self._ocv_volts)
                  + self.v_rc).sum(axis=1)
        self.o_dot = float(np.dot(self.o, self.inv))

    def bus_voltage(self, i_pack: float) -> float:
        """Bus voltage of the exact parallel split of a pack current."""
        return (i_pack + self.o_dot) / self.inv_sum

    def module_currents(self, i_pack: float) -> np.ndarray:
        """Exact parallel-bus current split for a given pack current."""
        return (self.bus_voltage(i_pack) - self.o) * self.inv

    def cv_current(self, setpoint: float) -> float:
        """Pack current that places the bus voltage at the setpoint."""
        return float(np.sum((setpoint - self.o) / self.r_tot))

    def advance(self, i_mod: np.ndarray) -> None:
        """Advance every cell by dt at its branch current (exact updates)."""
        self.soc, self.v_rc, self.surf = _cell_update(
            self.soc, self.v_rc, self.surf, (i_mod / self.branches)[:, None],
            self.dt, self.capacity, self.r1, self.rc_decay, self.tau_d,
            self.diff_decay)
        self._offsets()


def run_cccv_pack(config: PackConfig, cell: CellParams, policy: CccvPolicy,
                  init_soc: float, noise: NoiseSpec = NoiseSpec(),
                  name: str = "") -> TelemetryTrace:
    """Simulate a CCCV charge of a pack, recorded at 1 Hz.

    CC applies ``c_rate`` times the pack capacity (cell capacity times
    ``parallel_modules * branches_per_module``) until the bus voltage reaches
    the pack setpoint ``series_cells * policy.v_max``; CV then holds the bus at
    the setpoint until the pack current tapers to the cutoff C-rate.  The
    noise seed derives from (rng_seed, policy, init_soc) so that identical
    inputs reproduce byte-identical traces while distinct policies on the
    same pack get independent noise.
    """
    if not 0.0 <= init_soc < 1.0:
        raise ValueError("init_soc must be in [0, 1)")
    if cell.ocv(init_soc) >= policy.v_max:
        raise ValueError(
            f"infeasible policy: OCV({init_soc}) >= v_max {policy.v_max}")

    capacity = (cell.capacity_ah * config.parallel_modules
                * config.branches_per_module)
    i_cc = policy.c_rate * capacity
    # At most the whole pack current through one module's branches.
    _require_finite_drops(cell, i_cc / config.branches_per_module)
    model = _PackModel(config, cell, init_soc, _SUB_DT)
    setpoint = config.series_cells * policy.v_max
    i_cut = policy.taper_cutoff_c * capacity
    n_records = int(policy.duration_s) + 1
    phase = "cc"

    i_out = np.empty(n_records)
    v_out = np.empty((n_records, config.q))
    im_out = np.empty((n_records, config.q))

    def pack_current(step: int) -> float:
        nonlocal phase
        if phase == "cc":
            if model.bus_voltage(i_cc) >= setpoint:
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
        i_mod = model.module_currents(i_k)
        i_out[k] = i_k
        v_out[k] = model.o + i_mod * model.r_mod
        im_out[k] = i_mod
        if k == n_records - 1:
            break
        for j in range(10):
            if j:
                i_mod = model.module_currents(pack_current(sub_step))
            model.advance(i_mod)
            sub_step += 1

    seed_key = [config.rng_seed, int(round(policy.c_rate * 1000)),
                int(round(init_soc * 1000)), int(policy.duration_s)]
    rng = np.random.default_rng(seed_key)
    z = rng.standard_normal((n_records, config.q))
    v_rec = v_out * (1.0 + noise.rel_sigma * z)
    return TelemetryTrace(
        t_s=np.arange(n_records, dtype=float), i_pack_a=i_out,
        v_modules=_quantize(v_rec), i_modules=im_out, name=name)


# ---------------------------------------------------------------------------
# Canonical configurations
# ---------------------------------------------------------------------------

def default_cell() -> CellParams:
    return CellParams()


def _ladder(shares, r_nominal: float) -> tuple:
    # Interconnect values that realize the requested current shares when the
    # modules are otherwise identical: 1/(r_mod + r_link) proportional to the
    # share, anchored so the largest share gets zero link resistance.
    top = max(shares)
    return tuple(r_nominal * (top / s - 1.0) for s in shares)


def pack1_config(rng_seed: int = 77) -> PackConfig:
    """4 parallel modules, 5 branches each, 100 series cells (20p100s).

    The interconnect ladder leaves module 1 farthest from the charger bus,
    so nominal module voltages come out ascending in module index.
    """
    r_nom = 100 * default_cell().r0_ohm / 5
    return PackConfig(
        name="pack1", parallel_modules=4, branches_per_module=5,
        series_cells=100, heterogeneity_sigma=0.01, rng_seed=rng_seed,
        interconnect_ohm=_ladder((0.55, 1.12, 1.15, 1.18), r_nom))


def pack2_config(rng_seed: int = 54) -> PackConfig:
    """5 parallel modules, 5 branches each, 80 series cells (25p80s)."""
    r_nom = 80 * default_cell().r0_ohm / 5
    return PackConfig(
        name="pack2", parallel_modules=5, branches_per_module=5,
        series_cells=80, heterogeneity_sigma=0.01, rng_seed=rng_seed,
        interconnect_ohm=_ladder((0.60, 1.04, 1.10, 1.10, 1.16), r_nom))
