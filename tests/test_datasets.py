import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from voltsentry import datasets, pipeline, simkit
from voltsentry.boost import NormSpec
from voltsentry.datasets import (SplitSpec, TraceParseError, build_supervised,
                                 check_no_leakage, concat, read_trace,
                                 write_trace)


class TestBuildSupervised:
    def test_consecutive_pairs(self):
        trace = make_trace([3.7, 3.8, 3.9], i=5.0)
        ds = build_supervised(trace, 1)
        assert np.array_equal(ds.x, [[3.7, 5.0], [3.8, 5.0]])
        assert np.array_equal(ds.y, [3.8, 3.9])

    def test_single_frame_errors(self):
        trace = make_trace([3.7])
        with pytest.raises(ValueError):
            build_supervised(trace, 1)

    def test_module_out_of_range(self):
        trace = make_trace([3.7, 3.8])
        with pytest.raises(ValueError):
            build_supervised(trace, 2)
        with pytest.raises(ValueError):
            build_supervised(trace, 0)

    def test_normalization_applied(self):
        trace = make_trace([[370.0], [380.0]], i=100.0)
        norm = NormSpec(v_scale=100.0, i_scale=20.0)
        ds = build_supervised(trace, 1, norm)
        assert np.array_equal(ds.x, [[3.7, 5.0]])
        assert np.array_equal(ds.y, [3.8])
        assert ds.norm == norm

    def test_pairs_never_span_attack_boundary(self):
        v = np.linspace(3.5, 3.9, 9)
        mask = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0])
        trace = make_trace(v, attack_mask=mask)
        ds = build_supervised(trace, 1)
        # 8 raw pairs minus the two boundary-spanning ones.
        assert len(ds) == 6
        kept_v = set(np.round(ds.x[:, 0], 9))
        assert np.round(v[2], 9) not in kept_v
        assert np.round(v[5], 9) not in kept_v

    @given(n=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_pair_count(self, n):
        trace = make_trace(np.linspace(3.0, 4.0, n))
        assert len(build_supervised(trace, 1)) == n - 1


class TestSplits:
    def _pack_trace(self, q=4, n=901, base=370.0, name=""):
        rng = np.random.default_rng(0)
        v = base + np.arange(q) + np.cumsum(rng.uniform(0, 0.01, (n, q)), axis=0)
        return make_trace(v, i=100.0, name=name)

    def _pack_sets(self, q, split):
        """Pack sets from two training charges and one test charge."""
        train = [self._pack_trace(q, name=f"c{j}") for j in (80, 120)]
        return pipeline.build_pack_sets(train, self._pack_trace(q, name="c100"),
                                        split, NormSpec())

    def test_default_split_sizes_pack1(self):
        spec = SplitSpec.default_for(4)
        assert spec.train_modules == (1, 2)
        train, val, test = self._pack_sets(4, spec)
        assert (len(train), len(val), len(test)) == (1800, 900, 900)

    def test_default_split_sizes_pack2(self):
        train, val, test = self._pack_sets(5, SplitSpec.default_for(5))
        assert (len(train), len(val), len(test)) == (2700, 900, 900)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec((1, 2), (2,), (3,))

    def test_cell_trace_with_pack_spec_errors(self):
        trace = make_trace([3.7, 3.8, 3.9])
        with pytest.raises(ValueError):
            pipeline.build_pack_sets([trace], trace, SplitSpec.default_for(4),
                                     NormSpec())

    def test_no_leakage(self):
        train, val, test = self._pack_sets(4, SplitSpec.default_for(4))
        check_no_leakage(train, val, test)
        with pytest.raises(ValueError, match="leakage"):
            check_no_leakage(train, train)

    def test_concat_requires_same_norm(self):
        trace = make_trace([3.7, 3.8, 3.9])
        a = build_supervised(trace, 1, NormSpec(1.0, 1.0))
        b = build_supervised(trace, 1, NormSpec(2.0, 1.0))
        with pytest.raises(ValueError):
            concat([a, b])


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        v = np.round(rng.uniform(300, 420, (10, 4)), 6)
        i = np.round(rng.uniform(0, 120, 10), 6)
        trace = make_trace(v, i=i)
        path = tmp_path / "t.csv"
        write_trace(path, trace)
        back = read_trace(path)
        assert back == trace

    def test_round_trip_with_mask(self, tmp_path):
        v = np.round(np.linspace(3.5, 3.6, 5), 6)
        trace = make_trace(v, attack_mask=np.array([0, 1, 1, 0, 0]))
        path = tmp_path / "m.csv"
        write_trace(path, trace)
        back = read_trace(path)
        assert back == trace
        assert np.array_equal(back.attack_mask, trace.attack_mask)

    def test_idempotent_at_declared_precision(self, tmp_path):
        # Raw currents quantize on first write; a second cycle is identity.
        trace = simkit.run_cccv_cell(
            simkit.default_cell(), simkit.CccvPolicy(c_rate=1.0, duration_s=50),
            0.3, simkit.NoiseSpec(), seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(p1, trace)
        once = read_trace(p1)
        write_trace(p2, once)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_trace(p2) == once

    @given(q=st.integers(1, 6), n=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, q, n, seed):
        rng = np.random.default_rng(seed)
        trace = make_trace(np.round(rng.uniform(3.0, 4.2, (n, q)), 6),
                           i=np.round(rng.uniform(0, 6, n), 6))
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_trace(path, trace)
        assert read_trace(path) == trace

    def test_header_written_as_documented(self, tmp_path):
        trace = make_trace(np.ones((2, 3)) * 3.7)
        path = tmp_path / "h.csv"
        write_trace(path, trace)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,i_pack_a,v_m1,v_m2,v_m3"


class TestCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(TraceParseError, match="no header") as err:
            read_trace(path)
        assert err.value.line == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("time,current,v1\n0,1,3.7\n")
        with pytest.raises(TraceParseError, match="header"):
            read_trace(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t_s,i_pack_a,v_m1,v_m2,v_m3,v_m4\n"
                        "0.0,100.0,350.0,350.1,350.2,350.3\n"
                        "1.0,100.0,350.0,350.1,350.2\n")
        with pytest.raises(TraceParseError, match="line 3"):
            read_trace(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("t_s,i_pack_a,v_m1\n0.0,1.0,nan\n")
        with pytest.raises(TraceParseError, match="non-finite"):
            read_trace(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t_s,i_pack_a,v_m1\n0.0,1.0,oops\n")
        with pytest.raises(TraceParseError, match="line 2"):
            read_trace(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_s,i_pack_a,v_m1\n")
        with pytest.raises(TraceParseError):
            read_trace(path)
