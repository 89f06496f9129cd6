import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace, same_trace
from threatgen_reference import reference_apply_scenario
from voltsentry.threatgen import AttackScenario, apply_scenario


def swap_one_frame(vs, i=100.0):
    """A one-frame trace after a swap attack over that frame."""
    return apply_scenario(make_trace([vs], i=i),
                          AttackScenario(kind="swap_fdi", k0_s=0, kf_s=1))


class TestApplySwap:
    def test_ascending_becomes_descending(self):
        out = swap_one_frame((350.1, 350.2, 350.3, 350.4))
        assert tuple(out.v_modules[0]) == (350.4, 350.3, 350.2, 350.1)
        assert out.i_pack_a[0] == 100.0
        assert out.t_s[0] == 0.0

    def test_all_equal_unchanged(self):
        assert tuple(swap_one_frame((350.0, 350.0, 350.0)).v_modules[0]) == (
            350.0, 350.0, 350.0)

    def test_needs_two_modules(self):
        with pytest.raises(ValueError):
            swap_one_frame((350.0,))

    def test_stable_tie_break(self):
        assert tuple(swap_one_frame((5.0, 3.0, 3.0), i=1.0).v_modules[0]) == (
            5.0, 3.0, 3.0)

    @given(vs=st.lists(st.floats(300, 400), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_multiset_preserved_and_descending(self, vs):
        out = tuple(swap_one_frame(tuple(vs), i=1.0).v_modules[0])
        assert sorted(out) == sorted(vs)
        assert all(a >= b for a, b in zip(out, out[1:]))


class TestScenarioValidation:
    def test_replay_requires_record_window(self):
        with pytest.raises(ValueError):
            AttackScenario(kind="replay", k0_s=400, kf_s=700)

    def test_replay_record_must_cover_active(self):
        with pytest.raises(ValueError, match="shorter"):
            AttackScenario(kind="replay", k0_s=400, kf_s=700,
                           record_start_s=100, record_end_s=300,
                           target_modules=(1,))

    def test_record_precedes_active(self):
        with pytest.raises(ValueError, match="precede"):
            AttackScenario(kind="replay", k0_s=300, kf_s=600,
                           record_start_s=100, record_end_s=400,
                           target_modules=(1,))

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            AttackScenario(kind="replay", k0_s=400, kf_s=700,
                           record_start_s=100, record_end_s=400,
                           target_modules=())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackScenario(kind="dos", k0_s=0, kf_s=1)

    def test_window_order(self):
        with pytest.raises(ValueError):
            AttackScenario(kind="swap_fdi", k0_s=700, kf_s=300)

    @pytest.mark.parametrize("replay_key", [
        {"record_start_s": 100}, {"record_end_s": 200},
        {"target_modules": (1, 2)}, {"target_modules": []}])
    def test_swap_with_replay_key_rejected(self, replay_key):
        """A swap reads no record window and no targets, so one that names
        either is rejected rather than silently dropping it."""
        with pytest.raises(ValueError, match="swap takes no"):
            AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700, **replay_key)


def stair_trace(n=900, q=5, base=300.0):
    t = np.arange(n, dtype=float)
    v = base + np.arange(q)[None, :] * 2.0 + 0.01 * t[:, None]
    return make_trace(v, i=100.0, t=t)


class TestApplyReplay:
    def paper_scenario(self):
        return AttackScenario(kind="replay", k0_s=400, kf_s=700,
                              record_start_s=100, record_end_s=400,
                              target_modules=(1, 2))

    def test_replayed_values_match_recorded_window(self):
        trace = stair_trace()
        out = apply_scenario(trace, self.paper_scenario())
        assert out.v_modules[400, 0] == trace.v_modules[100, 0]
        assert out.v_modules[699, 1] == trace.v_modules[399, 1]
        # Non-target modules and the current channel are untouched.
        assert np.array_equal(out.v_modules[:, 2:], trace.v_modules[:, 2:])
        assert np.array_equal(out.i_pack_a, trace.i_pack_a)

    def test_outside_window_identity(self):
        trace = stair_trace()
        out = apply_scenario(trace, self.paper_scenario())
        assert np.array_equal(out.v_modules[:400], trace.v_modules[:400])
        assert np.array_equal(out.v_modules[700:], trace.v_modules[700:])

    def test_window_outside_trace_rejected(self):
        trace = stair_trace(n=500)
        with pytest.raises(ValueError, match="outside"):
            apply_scenario(trace, self.paper_scenario())

    def test_target_module_beyond_q(self):
        trace = stair_trace(q=2)
        scenario = AttackScenario(kind="replay", k0_s=400, kf_s=700,
                                  record_start_s=100, record_end_s=400,
                                  target_modules=(1, 5))
        with pytest.raises(ValueError, match="module"):
            apply_scenario(trace, scenario)


class TestApplyScenario:
    def test_swap_mask_covers_window_exactly(self):
        trace = stair_trace(q=4)
        scenario = AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700)
        mask = apply_scenario(trace, scenario).attack_mask
        assert mask.sum() == 400
        assert np.all(mask[300:700] == 1)
        assert np.all(mask[:300] == 0) and np.all(mask[700:] == 0)

    def test_swap_rows_descending_inside_window(self):
        trace = stair_trace(q=4)
        out = apply_scenario(
            trace, AttackScenario(kind="swap_fdi", k0_s=300, kf_s=700))
        inside = out.v_modules[300:700]
        assert np.all(np.diff(inside, axis=1) <= 0)
        assert np.array_equal(np.sort(inside, axis=1),
                              np.sort(trace.v_modules[300:700], axis=1))

    def test_input_trace_not_modified(self):
        trace = stair_trace(q=4)
        snapshot = trace.v_modules.copy()
        apply_scenario(trace, AttackScenario(kind="swap_fdi", k0_s=10, kf_s=20))
        assert np.array_equal(trace.v_modules, snapshot)
        assert trace.attack_mask is None

    def test_zero_length_window_identity(self):
        trace = stair_trace(q=4)
        out = apply_scenario(
            trace, AttackScenario(kind="swap_fdi", k0_s=300, kf_s=300))
        assert np.array_equal(out.v_modules, trace.v_modules)
        assert out.attack_mask.sum() == 0
        origin, source = out._origin
        assert origin is trace
        assert np.array_equal(source.ravel(), np.arange(trace.v_modules.size))

    def test_double_swap_restores_when_strictly_ordered(self):
        # Oracle: composing the permutation twice. With q=2 and a strict
        # ordering, descending-sort twice reproduces the descending frame,
        # and the second application leaves it unchanged.
        trace = stair_trace(q=2)
        scenario = AttackScenario(kind="swap_fdi", k0_s=100, kf_s=200)
        once = replace(apply_scenario(trace, scenario), attack_mask=None)
        twice = apply_scenario(once, scenario)
        assert np.array_equal(twice.v_modules, once.v_modules)
        inside = once.v_modules[100:200]
        assert np.all(inside[:, 0] >= inside[:, 1])

    def test_swap_needs_q_ge_2(self):
        trace = stair_trace(q=1)
        with pytest.raises(ValueError):
            apply_scenario(trace,
                           AttackScenario(kind="swap_fdi", k0_s=10, kf_s=20))

    def test_mask_written_and_read_back(self, tmp_path):
        from voltsentry.datasets import read_trace, write_trace
        trace = stair_trace(q=3)
        trace = replace(trace, v_modules=np.round(trace.v_modules, 6))
        out = apply_scenario(
            trace, AttackScenario(kind="swap_fdi", k0_s=5, kf_s=15))
        path = tmp_path / "corrupt.csv"
        write_trace(path, out)
        back = read_trace(path)
        assert np.array_equal(back.attack_mask, out.attack_mask)
        assert same_trace(back, out)


class TestAttackWindowProperty:
    @given(data=st.data(), n=st.integers(2, 60), q=st.integers(2, 5),
           replay=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_mask_is_window_and_outside_unchanged(self, data, n, q, replay, seed):
        """Swap and replay on random windows: the mask is 1 exactly on
        [k0, kf), and the current and every frame outside it are unchanged."""
        rng = np.random.default_rng(seed)
        trace = make_trace(rng.uniform(300.0, 400.0, (n, q)),
                           i=rng.uniform(0.0, 100.0, n))
        if replay:
            span = data.draw(st.integers(0, (n - 1) // 2))
            record = max(span, 1)
            k0 = data.draw(st.integers(record, n - span))
            start = data.draw(st.integers(0, k0 - record))
            end = data.draw(st.integers(start + record, k0))
            targets = data.draw(st.sets(st.integers(1, q), min_size=1))
            scenario = AttackScenario(kind="replay", k0_s=k0, kf_s=k0 + span,
                                      record_start_s=start, record_end_s=end,
                                      target_modules=tuple(targets))
        else:
            k0 = data.draw(st.integers(0, n))
            scenario = AttackScenario(kind="swap_fdi", k0_s=k0,
                                      kf_s=data.draw(st.integers(k0, n)))
        out = apply_scenario(trace, scenario)
        window = (trace.t_s >= scenario.k0_s) & (trace.t_s < scenario.kf_s)
        assert np.array_equal(out.attack_mask, window.astype(int))
        assert out.i_pack_a.tobytes() == trace.i_pack_a.tobytes()
        assert out.t_s.tobytes() == trace.t_s.tobytes()
        assert out.v_modules[~window].tobytes() == trace.v_modules[~window].tobytes()


# Module voltages drawn from a few values, signed zeros among them, so that
# frames hold ties and -0.0 beside 0.0.
TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.0, 0.5, 0.5, 2.25])


class TestSourceMapMatchesReference:
    """apply_scenario's gather through the source map equals the copy-based
    swap and replay it replaced, bit for bit, and the map explains every
    corrupted value."""

    @given(data=st.data(), n=st.integers(1, 30), q=st.integers(1, 5),
           replay=st.booleans(), tied=st.booleans(),
           i_modules=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_gather_equals_reference(self, data, n, q, replay, tied,
                                     i_modules, seed):
        rng = np.random.default_rng(seed)
        if tied:
            v = np.array(data.draw(st.lists(TIED, min_size=n * q,
                                             max_size=n * q))).reshape(n, q)
        else:
            v = rng.uniform(300.0, 400.0, (n, q))
        trace = make_trace(v, i=rng.uniform(0.0, 100.0, n),
                           i_modules=rng.uniform(0.0, 25.0, (n, q))
                           if i_modules else None, name=data.draw(
                               st.sampled_from(["", "pack1_c100"])))
        if replay:
            # Windows of any length from 0, ending anywhere up to the last
            # frame, on any nonempty target set (all modules included).
            record = data.draw(st.integers(1, max(1, n // 2)))
            k0 = data.draw(st.integers(record, max(record, n)))
            span = data.draw(st.integers(0, min(record, n - k0)))
            start = data.draw(st.integers(0, k0 - record))
            targets = data.draw(st.sets(st.integers(1, q), min_size=1))
            scenario = AttackScenario(
                kind="replay", k0_s=k0, kf_s=k0 + span, record_start_s=start,
                record_end_s=start + record, target_modules=tuple(targets))
        else:
            k0 = data.draw(st.integers(0, n))
            scenario = AttackScenario(kind="swap_fdi", k0_s=k0,
                                      kf_s=data.draw(st.integers(k0, n)))
        try:
            want, want_mask = reference_apply_scenario(trace, scenario)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                apply_scenario(trace, scenario)
            return
        got = apply_scenario(trace, scenario)
        mask = got.attack_mask
        origin, source = got._origin
        assert origin is trace
        assert got.v_modules.tobytes() == want.v_modules.tobytes()
        assert same_trace(got, want) and got.name == want.name
        assert mask.tobytes() == want_mask.tobytes()
        assert mask.dtype == want_mask.dtype
        for name in ("t_s", "i_pack_a", "i_modules"):
            # The nominal's own arrays, equal to the reference's copies.
            assert getattr(got, name) is getattr(trace, name)
            assert (getattr(want, name) is None) == (getattr(got, name) is None)
            if getattr(got, name) is not None:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert source.shape == trace.v_modules.shape
        assert not source.flags.writeable
        gathered = trace.v_modules.ravel().take(source)
        assert gathered.tobytes() == got.v_modules.tobytes()
        # The map is the identity outside the window and, for a swap,
        # stays within each frame.
        outside = mask == 0
        identity = np.arange(n * q).reshape(n, q)
        assert np.array_equal(source[outside], identity[outside])
        if scenario.kind == "swap_fdi":
            assert np.array_equal(source // q, identity // q)

    @given(data=st.data(), n=st.integers(1, 30), q=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_descending_order_equals_per_window_argsort(self, data, n, q):
        """The order computed once per trace, sliced to any window, is the
        stable argsort of that window, ties and -0.0 included."""
        v = np.array(data.draw(st.lists(TIED, min_size=n * q,
                                         max_size=n * q))).reshape(n, q)
        trace = make_trace(v)
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        order = trace.descending_order
        assert order is trace.descending_order  # computed once
        assert order.shape == (n, q) and not order.flags.writeable
        with pytest.raises(ValueError):
            order.flags.writeable = True
        want = np.argsort(-trace.v_modules[a:b], axis=1, kind="stable")
        assert order[a:b].tobytes() == want.tobytes()
        assert order.dtype == want.dtype
        # Python's sort is stable and -0.0 == 0.0 there too.
        assert order.tolist() == [sorted(range(q), key=lambda m: -row[m])
                                  for row in v.tolist()]

    def test_negative_zero_and_ties_keep_module_order(self):
        """-0.0 and 0.0 compare equal, so a swap keeps them in module
        order, as a stable descending sort does."""
        trace = make_trace([[0.0, -0.0, 1.0, -0.0, 0.0]], i=1.0)
        out = apply_scenario(
            trace, AttackScenario(kind="swap_fdi", k0_s=0, kf_s=1))
        source = out._origin[1]
        assert source.tolist() == [[2, 0, 1, 3, 4]]
        assert np.signbit(out.v_modules[0]).tolist() == [
            False, False, True, True, False]
