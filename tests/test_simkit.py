import hashlib
import os
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import simkit_reference
from conftest import gather, make_trace, same_trace
from voltsentry import configio, datasets, pipeline, simkit
from voltsentry.simkit import (CccvPolicy, CellParams, NoiseSpec, PackConfig,
                               SolverError, run_cccv_cell, run_cccv_pack)
from voltsentry.threatgen import AttackScenario, apply_scenario

CELL = simkit.default_cell()
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def cell_update(params, soc, v_rc, surf, i, dt):
    """The simulator's exact update of one cell's (soc, v_rc, surf) over dt."""
    rc_decay, diff_decay = simkit._decays(params, dt)
    return simkit._cell_update(soc, v_rc, surf, i, dt, params.capacity_ah,
                               params.r1_ohm, rc_decay, params.diff_tau_s,
                               diff_decay)


def terminal_voltage(params, v_rc, surf, i):
    return params.ocv(surf) + i * params.r0_ohm + v_rc


class TestStepCell:
    """The cell update kernel, on one cell's floats."""

    def test_zero_input_relaxation(self):
        soc, v_rc, surf = cell_update(CELL, 0.5, 0.05, 0.4, 0.0, 10.0)
        assert soc == 0.5
        assert 0.0 < v_rc < 0.05
        assert 0.4 < surf < 0.5

    def test_one_hour_at_1c_charges_full(self):
        params = CellParams(capacity_ah=5.0)
        soc, _, _ = cell_update(params, 0.5, 0.0, 0.5, 5.0, 3600.0)
        assert soc == 1.0

    def test_charge_conservation_exact(self):
        i, dt = 4.2, 7.0
        soc, _, _ = cell_update(CELL, 0.3, 0.0, 0.3, i, dt)
        assert soc == 0.3 + i * dt / 3600.0 / CELL.capacity_ah

    @given(soc=st.floats(0.05, 0.95), i=st.floats(-8.0, 8.0),
           dt=st.floats(0.01, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, soc, i, dt):
        out, _, _ = cell_update(CELL, soc, 0.0, soc, i, dt)
        expected = min(max(soc + i * dt / 3600.0 / CELL.capacity_ah, 0.0), 1.0)
        assert out == expected

    def test_substep_equivalence_vs_euler_oracle(self):
        # Independent oracle: explicit Euler at 1 ms on the same ODE.
        state = (0.4, 0.01, 0.38)
        i = 5.0
        _, v_rc_macro, surf_macro = cell_update(CELL, *state, i, 1.0)

        soc, v_rc, surf = state
        h = 0.001
        tau1 = CELL.r1_ohm * CELL.c1_f
        for _ in range(1000):
            d_soc = i / 3600.0 / CELL.capacity_ah
            d_vrc = (i * CELL.r1_ohm - v_rc) / tau1
            d_surf = (soc - surf) / CELL.diff_tau_s
            soc += d_soc * h
            v_rc += d_vrc * h
            surf += d_surf * h
        v_macro = terminal_voltage(CELL, v_rc_macro, surf_macro, i)
        v_euler = terminal_voltage(CELL, v_rc, surf, i)
        assert abs(v_macro - v_euler) < 1e-6
        # The exact update must also equal its own sub-stepped composition.
        sub = state
        for _ in range(10):
            sub = cell_update(CELL, *sub, i, 0.1)
        assert abs(terminal_voltage(CELL, sub[1], sub[2], i) - v_macro) < 1e-9


class TestCellVoltage:
    def test_at_knot_equals_knot_ocv(self):
        soc, volts = CELL.ocv_knots[5]
        assert CELL.ocv(soc) == volts

    def test_arithmetic(self):
        # The first record: OCV(0.5) plus the ohmic drop of 1C = 5 A.
        params = CellParams(r0_ohm=0.01,
                            ocv_knots=((0.0, 3.0), (0.5, 3.7), (1.0, 4.2)))
        trace = run_cccv_cell(params, CccvPolicy(c_rate=1.0, duration_s=1),
                              0.5, NoiseSpec(0.0))
        assert trace.i_pack_a[0] == 5.0
        assert trace.v_modules[0, 0] == pytest.approx(3.75, abs=1e-12)


class TestParamValidation:
    def test_ocv_must_increase(self):
        with pytest.raises(ValueError):
            CellParams(ocv_knots=((0.0, 3.0), (0.5, 2.9), (1.0, 4.2)))
        with pytest.raises(ValueError):
            CellParams(ocv_knots=((0.0, 3.0), (0.0, 3.1), (1.0, 4.2)))

    def test_positivity(self):
        with pytest.raises(ValueError):
            CellParams(capacity_ah=0.0)
        with pytest.raises(ValueError):
            CellParams(c1_f=-1.0)


class TestRunCccvCell:
    def test_cc_current_is_c_rate_times_capacity(self):
        trace = run_cccv_cell(CELL, CccvPolicy(c_rate=1.0, duration_s=60),
                              0.3, NoiseSpec(0.0), seed=0)
        assert np.all(trace.i_pack_a == 5.0)

    def test_noise_free_cc_voltage_nondecreasing(self):
        trace = run_cccv_cell(CELL, CccvPolicy(c_rate=0.8, duration_s=600),
                              0.2, NoiseSpec(0.0), seed=0)
        cc = trace.i_pack_a == trace.i_pack_a[0]
        v = trace.v_modules[cc, 0]
        assert np.all(np.diff(v) >= 0)

    def test_cv_taper_strictly_decreasing_and_regulated(self):
        trace = run_cccv_cell(CELL, CccvPolicy(c_rate=1.0, duration_s=1500),
                              0.85, NoiseSpec(0.0), seed=0)
        i = trace.i_pack_a
        cv = (i < i[0]) & (i > 0)
        assert cv.sum() > 50
        assert np.all(np.diff(i[cv]) < 0)
        assert np.max(np.abs(trace.v_modules[cv, 0] - CELL.v_max)) <= 1e-3
        # Taper ends at the cutoff C-rate, then the cell rests.
        cutoff = 0.05 * CELL.capacity_ah
        assert np.all(i[cv] > cutoff)

    def test_infeasible_policy_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            run_cccv_cell(CELL, CccvPolicy(c_rate=1.0, v_max=3.2),
                          0.5, NoiseSpec(0.0), seed=0)

    def test_init_soc_range(self):
        with pytest.raises(ValueError):
            run_cccv_cell(CELL, CccvPolicy(c_rate=1.0), 1.0)

    def test_noise_only_touches_recorded_voltages(self):
        quiet = run_cccv_cell(CELL, CccvPolicy(c_rate=1.0, duration_s=120),
                              0.3, NoiseSpec(0.0), seed=3)
        noisy = run_cccv_cell(CELL, CccvPolicy(c_rate=1.0, duration_s=120),
                              0.3, NoiseSpec(0.001), seed=3)
        assert np.array_equal(quiet.i_pack_a, noisy.i_pack_a)
        assert not np.array_equal(quiet.v_modules, noisy.v_modules)
        rel = (noisy.v_modules - quiet.v_modules) / quiet.v_modules
        assert np.max(np.abs(rel)) < 0.001 * 6

    def test_determinism(self):
        a = run_cccv_cell(CELL, CccvPolicy(c_rate=1.2, duration_s=200), 0.4,
                          NoiseSpec(), seed=9)
        b = run_cccv_cell(CELL, CccvPolicy(c_rate=1.2, duration_s=200), 0.4,
                          NoiseSpec(), seed=9)
        assert same_trace(a, b)


class TestPolicyValidation:
    def test_taper_cutoff_range(self):
        with pytest.raises(ValueError):
            CccvPolicy(c_rate=1.0, taper_cutoff_c=1.0)
        with pytest.raises(ValueError):
            CccvPolicy(c_rate=0.0)


def small_pack(sigma=0.0, interconnect=0.0, seed=5):
    return PackConfig(
        name="mini", parallel_modules=3, branches_per_module=2,
        series_cells=4, heterogeneity_sigma=sigma, rng_seed=seed,
        interconnect_ohm=interconnect)


class TestRunCccvPack:
    def test_identical_modules_identical_columns(self):
        trace = run_cccv_pack(small_pack(), CELL,
                              CccvPolicy(c_rate=1.0, duration_s=120), 0.3,
                              NoiseSpec(0.0))
        for m in range(1, trace.q):
            assert np.array_equal(trace.v_modules[:, 0], trace.v_modules[:, m])

    def test_matches_cell_for_trivial_pack(self):
        config = PackConfig(name="one", parallel_modules=1,
                            branches_per_module=1, series_cells=1,
                            heterogeneity_sigma=0.0, rng_seed=0)
        policy = CccvPolicy(c_rate=1.0, duration_s=200)
        pack = run_cccv_pack(config, CELL, policy, 0.3, NoiseSpec(0.0))
        cell = run_cccv_cell(CELL, policy, 0.3, NoiseSpec(0.0), seed=0)
        assert np.allclose(pack.v_modules[:, 0], cell.v_modules[:, 0],
                           atol=1e-9)
        assert np.allclose(pack.i_pack_a, cell.i_pack_a, atol=1e-9)

    def test_kirchhoff_balance(self):
        trace = run_cccv_pack(small_pack(sigma=0.02, interconnect=(0.0, 0.05, 0.1)),
                              CELL, CccvPolicy(c_rate=1.0, duration_s=150), 0.3,
                              NoiseSpec(0.0))
        total = trace.i_modules.sum(axis=1)
        scale = np.maximum(np.abs(trace.i_pack_a), 1.0)
        assert np.max(np.abs(total - trace.i_pack_a) / scale) <= 1e-9

    def test_cv_regulates_bus_at_setpoint(self):
        config = small_pack(sigma=0.01, interconnect=(0.0, 0.02, 0.04))
        policy = CccvPolicy(c_rate=1.0, duration_s=600)
        trace = run_cccv_pack(config, CELL, policy, 0.8, NoiseSpec(0.0))
        setpoint = config.series_cells * policy.v_max
        i = trace.i_pack_a
        cv = (i < i[0]) & (i > 0)
        assert cv.sum() > 30
        # Bus voltage reconstructed per module must agree and sit on the
        # setpoint (the parallel constraint).
        r_link = np.array(config.interconnect_ohm)
        bus = trace.v_modules[cv] + trace.i_modules[cv] * r_link
        assert np.max(np.abs(bus - setpoint)) <= 1e-3
        # Recorded voltages carry 6 decimals, so the reconstruction agrees
        # to quantization precision, not solver precision.
        assert np.max(bus.max(axis=1) - bus.min(axis=1)) <= 2e-6
        assert np.all(np.diff(i[cv]) < 0)

    def test_pack1_table_row(self):
        config = simkit.pack1_config()
        assert (config.q, config.branches_per_module, config.series_cells) == (4, 5, 100)
        trace = run_cccv_pack(config, CELL, CccvPolicy(c_rate=1.0, duration_s=60),
                              0.25, NoiseSpec(0.0))
        assert trace.v_modules.shape[1] == 4
        # 1C of the pack's 20 strings of 5 Ah cells is 100 A.
        assert trace.i_pack_a[0] == 100.0
        assert trace.v_modules.max() < 100 * 4.2

    def test_pack2_table_row(self):
        config = simkit.pack2_config()
        assert (config.q, config.branches_per_module, config.series_cells) == (5, 5, 80)
        trace = run_cccv_pack(config, CELL, CccvPolicy(c_rate=0.8, duration_s=5),
                              0.25, NoiseSpec(0.0))
        # 0.8C of the pack's 25 strings of 5 Ah cells is 100 A.
        assert trace.i_pack_a[0] == 0.8 * 125.0

    def test_module_voltages_stably_ordered_with_ladder(self):
        config = simkit.pack1_config()
        trace = run_cccv_pack(config, CELL, CccvPolicy(c_rate=1.0, duration_s=900),
                              0.25, NoiseSpec(0.0))
        v = trace.v_modules
        assert np.all(v[:, 0] < v[:, -1])
        spread = v.max(axis=1) - v.min(axis=1)
        assert spread.min() > 3.0

    def test_determinism(self):
        config = small_pack(sigma=0.01, seed=11)
        policy = CccvPolicy(c_rate=0.8, duration_s=100)
        a = run_cccv_pack(config, CELL, policy, 0.3, NoiseSpec())
        b = run_cccv_pack(config, CELL, policy, 0.3, NoiseSpec())
        assert same_trace(a, b)


class TestTelemetryTypes:
    def test_frame_q(self):
        frame = simkit.TelemetryFrame(1.0, 5.0, (3.7, 3.8))
        assert frame.q == 2

    def test_trace_time_monotone(self):
        with pytest.raises(ValueError):
            simkit.TelemetryTrace(t_s=np.array([0.0, 0.0]),
                                  i_pack_a=np.zeros(2),
                                  v_modules=np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_frame_nonfinite_rejected(self, bad):
        for args in ((1.0, bad, (3.7, 3.8)), (1.0, 5.0, (3.7, bad)),
                     (bad, 5.0, (3.7, 3.8))):
            with pytest.raises(ValueError, match="finite"):
                simkit.TelemetryFrame(*args)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_trace_nonfinite_rejected(self, bad):
        t, i, v = np.arange(3.0), np.zeros(3), np.ones((3, 2))
        for field in range(3):
            arrays = [t.copy(), i.copy(), v.copy()]
            arrays[field][-1] = bad
            with pytest.raises(ValueError, match="finite"):
                simkit.TelemetryTrace(t_s=arrays[0], i_pack_a=arrays[1],
                                      v_modules=arrays[2])

    @pytest.mark.parametrize("t", [[0.0, 1.0, 3.0], [0.0, 1.0, 1.0],
                                   [0.0, 2.0, 1.0], [5.0, 5.5, 6.5]],
                             ids=["gap", "duplicate", "reversal", "half-step"])
    def test_trace_cadence_rejected(self, t):
        with pytest.raises(ValueError, match="1 s"):
            simkit.TelemetryTrace(t_s=np.array(t), i_pack_a=np.zeros(3),
                                  v_modules=np.ones((3, 1)))

    def test_trace_arrays_read_only_copies(self):
        t, i, v, mask = np.arange(3.0), np.zeros(3), np.ones((3, 2)), np.zeros(3, int)
        trace = simkit.TelemetryTrace(t_s=t, i_pack_a=i, v_modules=v,
                                      i_modules=v, attack_mask=mask)
        arrays = (trace.t_s, trace.i_pack_a, trace.v_modules, trace.i_modules,
                  trace.attack_mask)
        for given, kept in zip((t, i, v, v, mask), arrays):
            assert given.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(given, kept)
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1
        v[0, 0] = 7.0
        assert trace.v_modules[0, 0] == 1.0

    def test_trace_immutable(self, tmp_path):
        """Traces from every source: no array of one, nor any view of it,
        can be made writable, and no attribute can be reassigned."""
        policy = CccvPolicy(c_rate=1.0, duration_s=20.0)
        cell = simkit.run_cccv_cell(simkit.default_cell(), policy, 0.5)
        pack = simkit.run_cccv_pack(simkit.pack1_config(),
                                    simkit.default_cell(), policy, 0.5)
        attacked = apply_scenario(pack, AttackScenario("swap_fdi", 5, 15))
        datasets.write_trace(tmp_path / "attacked.csv", attacked)
        read = datasets.read_trace(tmp_path / "attacked.csv")
        assert pack.i_modules is not None and read.attack_mask is not None
        for trace in (cell, pack, attacked, read):
            arrays = [getattr(trace, f.name) for f in fields(trace)
                      if isinstance(getattr(trace, f.name), np.ndarray)]
            assert len(arrays) >= 3
            for a in arrays:
                for view in (a, a[1:], a.T, a.reshape(-1), a[::2]):
                    with pytest.raises(ValueError):
                        view.flags.writeable = True
            for f in fields(trace):
                with pytest.raises(FrozenInstanceError):
                    setattr(trace, f.name, getattr(trace, f.name))
        with pytest.raises(ValueError):
            attacked._origin[1].flags.writeable = True

    def test_trace_shape_checks(self):
        with pytest.raises(ValueError):
            simkit.TelemetryTrace(t_s=np.array([0.0, 1.0]),
                                  i_pack_a=np.zeros(3),
                                  v_modules=np.ones((2, 1)))
        with pytest.raises(ValueError, match="matching lengths"):
            simkit.TelemetryTrace(t_s=np.arange(3.0), i_pack_a=np.zeros(3),
                                  v_modules=np.ones((3, 1)),
                                  attack_mask=np.zeros(2, int))

    @pytest.mark.parametrize("mask", [[0, 2, 1], [0, 0.5, 1], [0, -1, 1],
                                      [0, np.nan, 1]])
    def test_attack_mask_other_than_zero_or_one_rejected(self, mask):
        """A mask value other than 0 and 1 would write a CSV that
        read_trace refuses, or be written truncated (0.5 as 0)."""
        trace = make_trace(np.ones((3, 2)))
        with pytest.raises(ValueError, match="attack_mask must be 0 or 1"):
            replace(trace, attack_mask=np.array(mask))
        for ok in ([0, 1, 1], [0.0, 1.0, 0.0], [False, True, False]):
            assert replace(trace, attack_mask=np.array(ok)).attack_mask.tolist() == ok


def pack_trace(n=12):
    """A short pack 1 charge: it carries i_modules, as simulated traces do."""
    return run_cccv_pack(simkit.pack1_config(), CELL,
                         CccvPolicy(c_rate=1.0, duration_s=float(n - 1)), 0.5,
                         name="p1")


class TestWithVoltages:
    """The attacked trace, this trace with gathered voltages
    (``TelemetryTrace._gather``), shares the nominal's checked, immutable
    arrays, keeps the frozen source map and mask it is given, and keeps the
    nominal and the map as its origin."""

    def test_adopts_nominal_arrays(self):
        trace = pack_trace()
        n, q = trace.v_modules.shape
        source = simkit._frozen(np.arange(n * q).reshape(n, q)[::-1])
        mask = np.zeros(n, int)
        mask[3:7] = 1
        mask = simkit._frozen(mask)
        out = trace._gather(source, mask, "p1_swap_fdi")
        assert out.t_s is trace.t_s
        assert out.i_pack_a is trace.i_pack_a
        assert out.i_modules is trace.i_modules and out.i_modules is not None
        assert out.name == "p1_swap_fdi" and out._memo is None
        assert out.v_modules.tobytes() == trace.v_modules[::-1].tobytes()
        origin, kept_source = out._origin
        assert origin is trace and trace._origin is None
        assert kept_source is source and out.attack_mask is mask
        for a in (out.t_s, out.i_pack_a, out.i_modules, out.v_modules,
                  out.attack_mask, kept_source):
            for view in (a, a[1:], a.reshape(-1)):
                with pytest.raises(ValueError):
                    view.flags.writeable = True
        # The same value the constructor builds from the same arrays, with
        # no origin; a copy carries none either.
        built = simkit.TelemetryTrace(trace.t_s, trace.i_pack_a,
                                      v_modules=trace.v_modules[::-1],
                                      i_modules=trace.i_modules,
                                      attack_mask=mask, name="p1_swap_fdi")
        assert same_trace(out, built)
        assert out.attack_mask.dtype == built.attack_mask.dtype
        assert out.v_modules.dtype == built.v_modules.dtype
        assert built._origin is None and out.copy()._origin is None
        assert trace.attack_mask is None and trace.name == "p1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_voltage_rejected(self, bad):
        """A gather cannot hold a non-finite voltage: the trace it gathers
        from rejects one when it is built and refuses one written after."""
        trace = pack_trace()
        v = trace.v_modules.copy()
        v[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            replace(trace, v_modules=v)
        with pytest.raises(ValueError, match="read-only"):
            trace.v_modules[5, 1] = bad
        out = gather(trace, np.full((12, 4), 5 * 4 + 1), np.zeros(12, int))
        assert np.isfinite(out.v_modules).all()

    def test_unsigned_source_accepted(self):
        trace = pack_trace()
        source = np.arange(48, dtype=np.uint32).reshape(12, 4)
        out = gather(trace, source, np.zeros(12, int))
        assert out.v_modules.tobytes() == trace.v_modules.tobytes()


def _outcome(run):
    """The trace bytes a simulator call returns, or the error it raises.

    numpy floating-point errors raise here, so an overflow is an outcome
    that both implementations must share, not a warning.  Only its type is
    kept: the two may overflow first in different operations.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            trace = run()
    except FloatingPointError:
        return ("error", FloatingPointError)
    except (ValueError, SolverError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "step", None))
    return ("trace", trace.t_s.tobytes(), trace.i_pack_a.tobytes(),
            trace.v_modules.tobytes(), trace.i_modules.tobytes())


def _phases(outcome, i_cc) -> str:
    """Hypothesis event label: the charging phases a run's currents show."""
    if outcome[0] == "error":
        return f"error: {outcome[1].__name__}"
    i = np.frombuffer(outcome[2])
    return "phases: " + "+".join(
        name for name, seen in (("cc", (i == i_cc).any()),
                                ("cv", ((i > 0) & (i < i_cc)).any()),
                                ("rest", (i == 0).any())) if seen)


def _sha256(trace) -> str:
    digest = hashlib.sha256()
    for a in (trace.t_s, trace.i_pack_a, trace.v_modules, trace.i_modules):
        digest.update(a.tobytes())
    return digest.hexdigest()


def _cells(r0_values):
    return st.builds(
        CellParams,
        capacity_ah=st.floats(0.5, 10.0),
        r0_ohm=st.sampled_from(r0_values),
        r1_ohm=st.sampled_from((0.0, 0.004, 0.012)),
        c1_f=st.floats(100.0, 5000.0),
        diff_tau_s=st.floats(5.0, 120.0))


cell_params = _cells((0.0, 0.005, 0.018, 0.03))

policies = st.builds(
    lambda c_rate, cut, v_max, duration: CccvPolicy(
        c_rate=c_rate, taper_cutoff_c=cut * c_rate, v_max=v_max,
        duration_s=duration),
    c_rate=st.floats(0.2, 3.0), cut=st.floats(0.02, 0.9),
    v_max=st.floats(4.0, 4.25), duration=st.floats(1.0, 300.0))

# Half the runs start near full charge, so that CV and rest are reached.
init_socs = st.one_of(st.floats(0.0, 0.99), st.floats(0.85, 0.95))

pack_shapes = dict(q=st.integers(1, 5), s=st.integers(1, 20),
                   branches=st.integers(1, 5), sigma=st.floats(0.0, 0.05),
                   ladder=st.booleans(), rng_seed=st.integers(0, 1000))

RESISTANCE_ERROR = ("module resistance r_mod + interconnect_ohm must be "
                    "positive and finite")
CONDUCTANCE_ERROR = ("module conductances 1 / (r_mod + interconnect_ohm) "
                     "overflow; the module resistance is too small")


def _pack_config(data, cell, q, s, branches, sigma, ladder, rng_seed):
    """A q-module pack of the cell, with a scalar or per-module interconnect
    drawn from [0, 0.2] ohm."""
    links = st.floats(0.0, 0.2)
    link = (tuple(data.draw(st.lists(links, min_size=q, max_size=q)))
            if ladder else data.draw(links))
    return PackConfig(
        name="prop", parallel_modules=q, branches_per_module=branches,
        series_cells=s, heterogeneity_sigma=sigma, rng_seed=rng_seed,
        interconnect_ohm=link)


class TestMatchesReference:
    """The once-per-step loops equal the per-call loops byte for byte."""

    @given(soc=st.floats(0.0, 1.0), v_rc=st.floats(-0.1, 0.1),
           surf=st.floats(0.0, 1.0), i=st.floats(-20.0, 20.0),
           dt=st.floats(1e-3, 3600.0), params=cell_params)
    @settings(max_examples=200, deadline=None)
    def test_step_cell(self, soc, v_rc, surf, i, dt, params):
        new = cell_update(params, soc, v_rc, surf, i, dt)
        old = simkit_reference.step_cell(
            simkit_reference.CellState(soc=soc, v_rc=v_rc, soc_surf=surf),
            params, i, dt)
        assert [float(x).hex() for x in new] == [
            float(getattr(old, f)).hex() for f in ("soc", "v_rc", "soc_surf")]

    @given(data=st.data(), q=st.integers(1, 4), s=st.integers(1, 6),
           dt=st.floats(1e-3, 3600.0), params=cell_params)
    @settings(max_examples=100, deadline=None)
    def test_cell_update_arrays_equal_floats(self, data, q, s, dt, params):
        """The pack's array form of the kernel equals its float form cell by
        cell, bit for bit, and updates v_rc and surf in place."""
        def grid(elements, shape):
            n = shape[0] * shape[1]
            return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)),
                            dtype=float).reshape(shape)

        soc = grid(st.floats(0.0, 1.0), (q, s))
        v_rc = grid(st.floats(-0.1, 0.1), (q, s))
        surf = grid(st.floats(0.0, 1.0), (q, s))
        capacity = grid(st.floats(0.5, 10.0), (q, s))
        i_cell = grid(st.floats(-20.0, 20.0), (q, 1))
        rc_decay, diff_decay = simkit._decays(params, dt)
        fixed = (params.r1_ohm, rc_decay, params.diff_tau_s, diff_decay)
        cells = [simkit._cell_update(float(soc[m, c]), float(v_rc[m, c]),
                                     float(surf[m, c]), float(i_cell[m, 0]), dt,
                                     float(capacity[m, c]), *fixed)
                 for m in range(q) for c in range(s)]
        v_rc_buf, surf_buf = v_rc.copy(), surf.copy()
        out = simkit._cell_update(soc, v_rc_buf, surf_buf, i_cell, dt, capacity,
                                  *fixed)
        assert out[2] is surf_buf
        assert out[1] is v_rc_buf or (params.r1_ohm == 0.0 and out[1] == 0.0)
        for j in range(3):
            got = np.broadcast_to(out[j], (q, s)).reshape(-1)
            assert [float(x).hex() for x in got] == [
                float(cell[j]).hex() for cell in cells]

    @given(params=cell_params, policy=policies, init_soc=init_socs,
           rel_sigma=st.sampled_from((0.0, 0.001, 0.01)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cell_run(self, params, policy, init_soc, rel_sigma, seed):
        noise = NoiseSpec(rel_sigma)
        new = _outcome(lambda: run_cccv_cell(params, policy, init_soc, noise, seed=seed))
        event(_phases(new, policy.c_rate * params.capacity_ah))
        assert new == _outcome(lambda: simkit_reference.run_cccv_cell(
            params, policy, init_soc, noise, seed=seed))

    @pytest.mark.parametrize("r1", [0.0, 0.012])
    @pytest.mark.parametrize("init_soc, c_rate, cutoff, phases", [
        (0.2, 1.0, 0.05, {"cc"}),
        (0.9, 1.0, 0.05, {"cc", "cv"}),
        (0.9, 2.0, 0.5, {"cv", "rest"}),
    ])
    def test_cell_phases(self, r1, init_soc, c_rate, cutoff, phases):
        params = replace(CELL, r1_ohm=r1)
        policy = CccvPolicy(c_rate=c_rate, taper_cutoff_c=cutoff, duration_s=300)
        new = run_cccv_cell(params, policy, init_soc, NoiseSpec(), seed=4)
        old = simkit_reference.run_cccv_cell(params, policy, init_soc,
                                             NoiseSpec(), seed=4)
        assert _outcome(lambda: new) == _outcome(lambda: old)
        i = new.i_pack_a
        seen = {"cc"} if i[0] == c_rate * CELL.capacity_ah else set()
        seen |= {"cv"} if ((i > 0) & (i < c_rate * CELL.capacity_ah)).any() else set()
        seen |= {"rest"} if (i == 0).any() else set()
        assert seen == phases

    def test_r0_zero_cell_reaching_cv(self):
        params = replace(CELL, r0_ohm=0.0)
        policy = CccvPolicy(c_rate=1.0, duration_s=600)
        new = _outcome(lambda: run_cccv_cell(params, policy, 0.9, seed=1))
        assert new[:2] == ("error", SolverError)
        assert "r0 = 0" in new[2] and new[3] > 0
        assert new == _outcome(lambda: simkit_reference.run_cccv_cell(
            params, policy, 0.9, seed=1))

    @given(data=st.data(), cell=cell_params, policy=policies,
           init_soc=init_socs, **pack_shapes)
    @settings(max_examples=60, deadline=None)
    def test_pack_run(self, data, cell, policy, q, s, branches, sigma, ladder,
                      init_soc, rng_seed):
        config = _pack_config(data, cell, q, s, branches, sigma, ladder, rng_seed)
        new = _outcome(lambda: run_cccv_pack(config, cell, policy, init_soc))
        event(_phases(new, policy.c_rate * (cell.capacity_ah * q * branches)))
        # A module with zero cell and link resistance is rejected before
        # any division (after the policy's feasibility check).
        if (cell.r0_ohm == 0.0 and min(config.interconnect_ohm) == 0.0
                and cell.ocv(init_soc) < policy.v_max):
            assert new == ("error", ValueError, RESISTANCE_ERROR, None)
            return
        want = _outcome(lambda: simkit_reference.run_cccv_pack(
            config, cell, policy, init_soc))
        if new == ("error", ValueError, CONDUCTANCE_ERROR, None):
            # Rejected up front, where the reference overflows.
            assert want == ("error", FloatingPointError)
        else:
            assert new == want

    def test_canonical_pack1_c100(self):
        spec = configio.read_sim_config(os.path.join(CONFIGS, "pack1_c100.ini"))
        args = (spec.pack, spec.cell, spec.policy, spec.init_soc, spec.noise)
        trace = run_cccv_pack(*args)
        assert _sha256(trace) == (
            "dbe2f6f0ea04d47ae5024c4f49a1b0a89e8bdbbd9df8ed9a9334ab0eed7f24b9")
        assert _outcome(lambda: trace) == _outcome(
            lambda: simkit_reference.run_cccv_pack(*args))

    def test_canonical_corpus_run(self):
        # cell_c120_s050_r105 of the canonical corpus (seed 1, run index 35):
        # CC, then a CV taper.
        args = (replace(CELL, r0_ohm=CELL.r0_ohm * 1.05),
                CccvPolicy(c_rate=1.2, duration_s=2200.0), 0.5, NoiseSpec())
        trace = run_cccv_cell(*args, seed=36)
        # Pinned on the 1 s CC steps: its CV currents differ from the
        # 0.1 s sub-steps' in the last bits (TestOneSecondSteps).
        assert _sha256(trace) == (
            "0a2bb2bda4e607746ab20a07f006a0c7044299b4f76b2825474e022b0988aa68")
        assert _outcome(lambda: trace) == _outcome(
            lambda: simkit_reference.run_cccv_cell(*args, seed=36))


class TestOneSecondSteps:
    """The cell loop steps a second in CC or rest as one 1 s update where
    that is exact, and every other second as ten 0.1 s sub-steps.  The
    recorded bytes equal the all-sub-step rule's; only in-memory CV
    currents move, in their last bits."""

    @given(soc=st.floats(0.05, 0.95), v_rc=st.floats(-0.1, 0.1),
           surf=st.floats(0.05, 0.95), i=st.floats(-20.0, 20.0),
           params=cell_params)
    @settings(max_examples=200, deadline=None)
    def test_one_second_equals_ten_substeps_property(self, soc, v_rc, surf,
                                                     i, params):
        """At constant current, one 1 s update equals ten 0.1 s updates
        within 1e-12 relative whenever no clamp engages.  v_rc is compared
        relative to the size of its move, since it may end near 0."""
        whole = cell_update(params, soc, v_rc, surf, i, 1.0)
        steps = [(soc, v_rc, surf)]
        for _ in range(10):
            steps.append(cell_update(params, *steps[-1], i, 0.1))
        # A clamp engaged only where a clamped SOC sits at 0 or 1.
        assume(all(0.0 < x < 1.0 for out in steps[1:] + [whole]
                   for x in (out[0], out[2])))
        sub = steps[-1]
        for j, scale in ((0, abs(sub[0])), (2, abs(sub[2])),
                         (1, max(abs(v_rc), abs(i * params.r1_ohm)))):
            assert abs(whole[j] - sub[j]) <= 1e-12 * scale

    @pytest.mark.parametrize("init_soc, c_rate, cutoff", [
        (0.2, 1.0, 0.05),
        (0.9, 1.0, 0.05),
        (0.9, 2.0, 0.5),
    ])
    def test_substeps_only_in_cv_and_the_switching_second(
            self, init_soc, c_rate, cutoff, monkeypatch):
        """Each second of CC or rest is one 1 s update; a CC second in which
        CV begins redoes it as ten 0.1 s updates, as is each second that
        records a CV current."""
        calls = []

        def recording(*args):
            calls.append(args[4])
            return kernel(*args)

        kernel = simkit._cell_update
        monkeypatch.setattr(simkit, "_cell_update", recording)
        policy = CccvPolicy(c_rate=c_rate, taper_cutoff_c=cutoff, duration_s=300)
        i = run_cccv_cell(CELL, policy, init_soc).i_pack_a
        i_cc = c_rate * CELL.capacity_ah
        want = []
        for k in range(i.size - 1):
            if i[k] == i_cc:  # CC: a 1 s trial, redone if CV begins
                want += [1.0] + ([0.1] * 10 if i[k + 1] < i_cc else [])
            elif i[k] > 0.0:  # CV
                want += [0.1] * 10
            else:  # rest
                want.append(1.0)
        assert calls == want

    def test_clamp_falls_back_to_substeps(self, monkeypatch):
        """With r0 = r1 = 0 and v_max at the table top, CC charges the bulk
        SOC to its clamp at 1.  A 1 s step across the clamp would ramp the
        surface SOC to the top and switch to CV, where r0 = 0 fails; the
        seconds that clamp are sub-stepped, so the run equals the
        all-sub-step rule and stays in CC."""
        calls = []

        def recording(*args):
            calls.append(args[4])
            return kernel(*args)

        kernel = simkit._cell_update
        monkeypatch.setattr(simkit, "_cell_update", recording)
        params = replace(CELL, r0_ohm=0.0, r1_ohm=0.0)
        policy = CccvPolicy(c_rate=1.0, v_max=CELL.ocv_knots[-1][1],
                            duration_s=300)
        new = _outcome(lambda: run_cccv_cell(params, policy, 0.98, seed=1))
        assert new[0] == "trace"
        assert set(np.frombuffer(new[2]).tolist()) == {policy.c_rate
                                                       * CELL.capacity_ah}
        assert 0.1 in calls and calls[0] == 1.0
        assert new == _outcome(lambda: simkit_reference.run_cccv_cell(
            params, policy, 0.98, seed=1))
        assert new == _outcome(lambda: simkit_reference.run_cccv_cell_substeps(
            params, policy, 0.98, seed=1))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_corpus_bytes_equal_substeps(self, seed, tmp_path, monkeypatch):
        """The canonical corpus CSVs and manifest equal, byte for byte,
        those of the rule that sub-steps every second."""
        spec = configio.read_sim_config(os.path.join(CONFIGS, "cell_corpus.ini"))
        new = pipeline.generate_cell_corpus(tmp_path / "new", spec.cell, seed,
                                            spec.noise)
        monkeypatch.setattr(simkit, "run_cccv_cell",
                            simkit_reference.run_cccv_cell_substeps)
        old = pipeline.generate_cell_corpus(tmp_path / "old", spec.cell, seed,
                                            spec.noise)
        assert len(new) == 37
        assert [os.path.basename(p) for p in new] == [
            os.path.basename(p) for p in old]
        for a, b in zip(new, old):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), os.path.basename(a)


class TestPackProperties:
    @given(data=st.data(), cell=_cells((0.005, 0.018, 0.03)), policy=policies,
           init_soc=init_socs, **pack_shapes)
    @settings(max_examples=60, deadline=None)
    def test_kirchhoff_balance(self, data, cell, policy, q, s, branches, sigma,
                               ladder, init_soc, rng_seed):
        """The module currents sum to the pack current at every record.

        The split's rounding error grows as module voltage over module
        resistance, so the cells have a positive r0: every module then has
        at least about 1 milliohm.
        """
        assume(cell.ocv(init_soc) < policy.v_max)
        config = _pack_config(data, cell, q, s, branches, sigma, ladder, rng_seed)
        trace = run_cccv_pack(config, cell, policy, init_soc)
        event(_phases(_outcome(lambda: trace),
                      policy.c_rate * (cell.capacity_ah * q * branches)))
        total = trace.i_modules.sum(axis=1)
        scale = np.maximum(np.abs(trace.i_pack_a), 1.0)
        assert np.max(np.abs(total - trace.i_pack_a) / scale) <= 1e-9

    @pytest.mark.parametrize("links", [0.0, (0.1, 0.0, 0.1), (0.0, 0.0, 0.05)])
    def test_zero_module_resistance_rejected(self, links):
        with pytest.raises(ValueError, match="positive and finite"):
            run_cccv_pack(small_pack(interconnect=links), replace(CELL, r0_ohm=0.0),
                          CccvPolicy(c_rate=1.0, duration_s=30), 0.3)

    @pytest.mark.parametrize("link", [2.2e-313, sys.float_info.min])
    def test_overflowing_conductance_rejected(self, link, monkeypatch):
        """Positive but tiny links overflow 1 / r, its sum or the offsets'
        weighted sum: rejected before any sub-step, without a numpy
        warning (warnings are errors in this suite)."""
        def no_step(*args):
            raise AssertionError("a sub-step ran")

        monkeypatch.setattr(simkit, "_cell_update", no_step)
        with pytest.raises(ValueError, match="conductances .* overflow"):
            simkit._PackModel(small_pack(interconnect=link),
                              replace(CELL, r0_ohm=0.0), 0.3, 0.1)
        with pytest.raises(ValueError, match="conductances .* overflow"):
            run_cccv_pack(small_pack(interconnect=link), replace(CELL, r0_ohm=0.0),
                          CccvPolicy(c_rate=1.0, duration_s=30), 0.3)


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("build, field", [
        (lambda x: CellParams(capacity_ah=x), "capacity_ah"),
        (lambda x: CellParams(r0_ohm=x), "r0_ohm"),
        (lambda x: CellParams(r1_ohm=x), "r1_ohm"),
        (lambda x: CellParams(c1_f=x), "c1_f"),
        (lambda x: CellParams(diff_tau_s=x), "diff_tau_s"),
        (lambda x: CellParams(v_max=x), "v_max"),
        (lambda x: CellParams(ocv_knots=((0.0, 3.0), (0.5, x), (1.0, 4.2))),
         "ocv_knots"),
        (lambda x: CellParams(ocv_knots=((0.0, 3.0), (x, 3.7), (1.0, 4.2))),
         "ocv_knots"),
        (lambda x: CccvPolicy(c_rate=x), "c_rate"),
        (lambda x: CccvPolicy(c_rate=1.0, v_max=x), "v_max"),
        (lambda x: CccvPolicy(c_rate=1.0, taper_cutoff_c=x), "taper_cutoff_c"),
        (lambda x: CccvPolicy(c_rate=1.0, duration_s=x), "duration_s"),
        (lambda x: NoiseSpec(rel_sigma=x), "rel_sigma"),
        (lambda x: replace(small_pack(), heterogeneity_sigma=x),
         "heterogeneity_sigma"),
        (lambda x: small_pack(interconnect=x), "interconnect_ohm"),
        (lambda x: small_pack(interconnect=(0.0, x, 0.1)), "interconnect_ohm"),
    ])
    def test_rejected_at_construction(self, build, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(bad)

    def test_overflowing_cc_current_rejected(self):
        args = (CellParams(capacity_ah=1e300), CccvPolicy(c_rate=1e10, duration_s=5),
                0.3)
        outcome = _outcome(lambda: run_cccv_cell(*args))
        assert outcome[:3] == ("error", ValueError, "i_cell must be finite, got inf")
        assert outcome == _outcome(lambda: simkit_reference.run_cccv_cell(*args))

    @pytest.mark.parametrize("field", ["r0_ohm", "r1_ohm"])
    def test_overflowing_voltage_drop_rejected(self, field, monkeypatch):
        """A finite resistance whose product with the policy's largest cell
        current overflows is rejected before any step, without a numpy
        warning (warnings are errors in this suite)."""
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(simkit, "_cell_update", no_step)
        cell = replace(CELL, **{field: 1e308})
        policy = CccvPolicy(c_rate=1.0, duration_s=20)
        with pytest.raises(ValueError, match=f"current 5.0 A times {field} "
                                             "1e[+]308 overflows"):
            run_cccv_cell(cell, policy, 0.3)
        # The whole 30 A of a 3x2 pack through one module's two branches.
        with pytest.raises(ValueError, match=f"current 15.0 A times {field} "
                                             "1e[+]308 overflows"):
            run_cccv_pack(small_pack(), cell, policy, 0.3)
