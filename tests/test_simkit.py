import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltsentry import simkit
from voltsentry.simkit import (CccvPolicy, CellParams, CellState, NoiseSpec,
                               PackConfig, cell_voltage, run_cccv_cell,
                               run_cccv_pack, step_cell)

CELL = simkit.default_cell()


class TestStepCell:
    def test_zero_input_relaxation(self):
        state = CellState(soc=0.5, v_rc=0.05, soc_surf=0.4)
        out = step_cell(state, CELL, 0.0, 10.0)
        assert out.soc == 0.5
        assert 0.0 < out.v_rc < 0.05
        assert 0.4 < out.soc_surf < 0.5

    def test_one_hour_at_1c_charges_full(self):
        params = CellParams(capacity_ah=5.0)
        out = step_cell(CellState(soc=0.5), params, 5.0, 3600.0)
        assert out.soc == 1.0

    def test_charge_conservation_exact(self):
        state = CellState(soc=0.3)
        i, dt = 4.2, 7.0
        out = step_cell(state, CELL, i, dt)
        assert out.soc == 0.3 + i * dt / 3600.0 / CELL.capacity_ah

    @given(soc=st.floats(0.05, 0.95), i=st.floats(-8.0, 8.0),
           dt=st.floats(0.01, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, soc, i, dt):
        out = step_cell(CellState(soc=soc), CELL, i, dt)
        expected = min(max(soc + i * dt / 3600.0 / CELL.capacity_ah, 0.0), 1.0)
        assert out.soc == expected

    def test_substep_equivalence_vs_euler_oracle(self):
        # Independent oracle: explicit Euler at 1 ms on the same ODE.
        state = CellState(soc=0.4, v_rc=0.01, soc_surf=0.38)
        i = 5.0
        macro = step_cell(state, CELL, i, 1.0)

        soc, v_rc, surf = state.soc, state.v_rc, state.soc_surf
        h = 0.001
        tau1 = CELL.r1_ohm * CELL.c1_f
        for _ in range(1000):
            d_soc = i / 3600.0 / CELL.capacity_ah
            d_vrc = (i * CELL.r1_ohm - v_rc) / tau1
            d_surf = (soc - surf) / CELL.diff_tau_s
            soc += d_soc * h
            v_rc += d_vrc * h
            surf += d_surf * h
        v_macro = cell_voltage(macro, CELL, i)
        v_euler = cell_voltage(CellState(soc=min(soc, 1.0), v_rc=v_rc,
                                         soc_surf=surf), CELL, i)
        assert abs(v_macro - v_euler) < 1e-6
        # The exact update must also equal its own sub-stepped composition.
        sub = state
        for _ in range(10):
            sub = step_cell(sub, CELL, i, 0.1)
        assert abs(cell_voltage(sub, CELL, i) - v_macro) < 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            step_cell(CellState(soc=0.5), CELL, float("nan"), 1.0)
        with pytest.raises(ValueError):
            step_cell(CellState(soc=0.5), CELL, 1.0, float("inf"))
        with pytest.raises(ValueError):
            step_cell(CellState(soc=0.5), CELL, 1.0, -1.0)


class TestCellVoltage:
    def test_at_knot_equals_knot_ocv(self):
        soc, volts = CELL.ocv_knots[5]
        state = CellState(soc=soc, v_rc=0.0, soc_surf=soc)
        assert cell_voltage(state, CELL, 0.0) == volts

    def test_arithmetic(self):
        params = CellParams(r0_ohm=0.01,
                            ocv_knots=((0.0, 3.0), (0.5, 3.7), (1.0, 4.2)))
        state = CellState(soc=0.5, v_rc=0.0, soc_surf=0.5)
        assert cell_voltage(state, params, 5.0) == pytest.approx(3.75, abs=1e-12)

    def test_affine_in_current_with_slope_r0(self):
        # Oracle: finite differences over i.
        state = CellState(soc=0.6, v_rc=0.02, soc_surf=0.55)
        currents = np.linspace(-3.0, 8.0, 12)
        volts = [cell_voltage(state, CELL, i) for i in currents]
        slopes = np.diff(volts) / np.diff(currents)
        assert np.allclose(slopes, CELL.r0_ohm, atol=1e-12)


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
        with pytest.raises(ValueError):
            CellParams(v_min=4.5)

    def test_state_bounds(self):
        with pytest.raises(ValueError):
            CellState(soc=1.2)
        with pytest.raises(ValueError):
            CellState(soc=0.5, soc_surf=-0.1)


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
        assert a == b


class TestPolicyValidation:
    def test_taper_cutoff_range(self):
        with pytest.raises(ValueError):
            CccvPolicy(c_rate=1.0, taper_cutoff_c=1.0)
        with pytest.raises(ValueError):
            CccvPolicy(c_rate=0.0)


def small_pack(sigma=0.0, interconnect=0.0, seed=5):
    return PackConfig(
        name="mini", parallel_modules=3, branches_per_module=2,
        series_cells=4, capacity_ah=CELL.capacity_ah * 6, v_max_pack=17.0,
        heterogeneity_sigma=sigma, rng_seed=seed,
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
                            capacity_ah=CELL.capacity_ah, v_max_pack=4.25,
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
        config.validate_capacity(CELL)
        trace = run_cccv_pack(config, CELL, CccvPolicy(c_rate=1.0, duration_s=60),
                              0.25, NoiseSpec(0.0))
        assert trace.v_modules.shape[1] == 4
        assert trace.v_modules.max() < config.v_max_pack
        assert 100 * 4.2 <= config.v_max_pack

    def test_pack2_table_row(self):
        config = simkit.pack2_config()
        assert (config.q, config.branches_per_module, config.series_cells) == (5, 5, 80)
        config.validate_capacity(CELL)
        assert config.capacity_ah == 125.0

    def test_capacity_consistency_enforced(self):
        config = PackConfig(name="bad", parallel_modules=2,
                            branches_per_module=2, series_cells=3,
                            capacity_ah=47.0, v_max_pack=13.0)
        with pytest.raises(ValueError, match="capacity"):
            run_cccv_pack(config, CELL, CccvPolicy(c_rate=1.0, duration_s=30),
                          0.3, NoiseSpec(0.0))

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
        assert a == b


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

    def test_trace_shape_checks(self):
        with pytest.raises(ValueError):
            simkit.TelemetryTrace(t_s=np.array([0.0, 1.0]),
                                  i_pack_a=np.zeros(3),
                                  v_modules=np.ones((2, 1)))
