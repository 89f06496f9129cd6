import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace, same_trace
from writers_reference import (reference_write_detection,
                               reference_write_events,
                               reference_write_loss_curve,
                               reference_write_prediction_csv)
from datasets_reference import reference_read_trace, reference_write_trace
from voltsentry import datasets, pipeline, reports, sentinel, simkit
from voltsentry.boost import BoostHistory, NormSpec
from voltsentry.datasets import (TraceParseError, build_supervised,
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

    def _pack_sets(self, q):
        """Pack sets from two training charges and one test charge."""
        train = [self._pack_trace(q, name=f"c{j}") for j in (80, 120)]
        return pipeline.build_pack_sets(train, self._pack_trace(q, name="c100"),
                                        NormSpec())

    def test_default_split_sizes_pack1(self):
        train, val, test = self._pack_sets(4)
        assert train.sources == (("c80", 1), ("c120", 2))
        assert val.sources == (("c80", 3),)
        assert test.sources == (("c100", 4),)
        assert (len(train), len(val), len(test)) == (1800, 900, 900)

    def test_default_split_sizes_pack2(self):
        train, val, test = self._pack_sets(5)
        assert train.sources == (("c80", 1), ("c120", 2), ("c80", 3))
        assert (val.sources, test.sources) == ((("c80", 4),), (("c100", 5),))
        assert (len(train), len(val), len(test)) == (2700, 900, 900)

    def test_cell_trace_with_pack_spec_errors(self):
        for trace in (make_trace([3.7, 3.8, 3.9]), self._pack_trace(2)):
            with pytest.raises(ValueError, match="at least 3 modules"):
                pipeline.build_pack_sets([trace, trace], trace, NormSpec())

    def test_no_leakage(self):
        train, val, test = self._pack_sets(4)
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
        assert same_trace(back, trace)

    def test_round_trip_with_mask(self, tmp_path):
        v = np.round(np.linspace(3.5, 3.6, 5), 6)
        trace = make_trace(v, attack_mask=np.array([0, 1, 1, 0, 0]))
        path = tmp_path / "m.csv"
        write_trace(path, trace)
        back = read_trace(path)
        assert same_trace(back, trace)
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
        assert same_trace(read_trace(p2), once)

    @given(q=st.integers(1, 6), n=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, q, n, seed):
        rng = np.random.default_rng(seed)
        trace = make_trace(np.round(rng.uniform(3.0, 4.2, (n, q)), 6),
                           i=np.round(rng.uniform(0, 6, n), 6))
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_trace(path, trace)
        assert same_trace(read_trace(path), trace)

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

    @pytest.mark.parametrize("t2", ["3.0", "1.0", "0.0"],
                             ids=["gap", "duplicate", "reversal"])
    def test_cadence_break_reports_line(self, tmp_path, t2):
        path = tmp_path / "c.csv"
        path.write_text("t_s,i_pack_a,v_m1\n0.0,1.0,3.7\n1.0,1.0,3.7\n"
                        f"{t2},1.0,3.7\n3.0,1.0,3.7\n")
        with pytest.raises(TraceParseError, match="line 4: t_s=") as err:
            read_trace(path)
        assert err.value.line == 4

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_s,i_pack_a,v_m1\n")
        with pytest.raises(TraceParseError):
            read_trace(path)


def random_trace(rng, n, q, with_mask):
    """A trace whose values include -0.0, values that round to -0.000000
    and a mask."""
    v = rng.uniform(-1.0, 420.0, (n, q))
    specials = np.array([-0.0, 0.0, -4e-7, 4e-7, 1e6 + 0.5, 3.6999995])
    pick = rng.random((n, q)) < 0.2
    v[pick] = rng.choice(specials, int(pick.sum()))
    i = np.where(rng.random(n) < 0.3, -0.0, rng.uniform(-130.0, 130.0, n))
    mask = rng.integers(0, 2, n) if with_mask else None
    return make_trace(v, i=i, t=np.arange(n) + float(rng.integers(0, 5)),
                      attack_mask=mask)


def write_both(tmp, trace):
    """Path of the CSV the writer makes; asserts it equals the reference's."""
    path, ref = tmp / "new.csv", tmp / "ref.csv"
    write_trace(path, trace)
    reference_write_trace(ref, trace)
    assert path.read_bytes() == ref.read_bytes()
    return path


def corrupt(rng, lines, has_mask, kind):
    """Corrupt one data line (index >= 1) of a CSV's lines in place."""
    k = int(rng.integers(1, len(lines)))
    fields = lines[k].split(",")
    if kind == "ragged":
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["3.7"]
    elif kind == "token":
        j = int(rng.integers(0, len(fields)))
        fields[j] = str(rng.choice(["oops", "", "1.2.3", "0x10", "--1"]))
    elif kind == "nonfinite":
        j = int(rng.integers(0, len(fields)))
        fields[j] = str(rng.choice(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "cadence":  # a gap, duplicate or reversal, mostly
        fields[0] = f"{float(rng.integers(-1, 45)) + rng.choice([0.0, 0.5]):.6f}"
    elif kind == "mask":
        fields[-1] = str(rng.choice(["2", "-1", "0.5"])) if has_mask else "nan"
    lines[k] = ",".join(fields)


class TestCsvMatchesReference:
    """The array reader and the %-format writer equal the line-by-line
    reference reader and writer."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           q=st.integers(1, 6), with_mask=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_valid_files(self, tmp_path_factory, seed, n, q, with_mask):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, n, q, with_mask)
        path = write_both(tmp_path_factory.mktemp("csv"), trace)
        got, want = read_trace(path), reference_read_trace(path)
        assert same_trace(got, want)
        assert got.name == want.name
        if with_mask:
            assert got.attack_mask.dtype == want.attack_mask.dtype
            assert np.array_equal(got.attack_mask, want.attack_mask)
        else:
            assert got.attack_mask is None

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
           q=st.integers(1, 5), with_mask=st.booleans(),
           kinds=st.lists(st.sampled_from(["ragged", "token", "nonfinite",
                                           "cadence", "mask"]),
                          min_size=1, max_size=3),
           blanks=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_files(self, tmp_path_factory, seed, n, q, with_mask,
                             kinds, blanks):
        rng = np.random.default_rng(seed)
        path = write_both(tmp_path_factory.mktemp("bad"),
                          random_trace(rng, n, q, with_mask))
        lines = path.read_text().splitlines()
        for kind in kinds:
            corrupt(rng, lines, with_mask, kind)
        for _ in range(blanks):  # blank lines anywhere after the header
            lines.insert(int(rng.integers(1, len(lines) + 1)),
                         str(rng.choice(["", "  ", "\t"])))
        path.write_text("\n".join(lines) + "\n")
        try:
            want = reference_read_trace(path)
        except TraceParseError as exc:
            with pytest.raises(TraceParseError) as err:
                read_trace(path)
            assert str(err.value) == str(exc)
            assert err.value.line == exc.line
        else:  # the corruption left a valid file (say, 1.0 to 1.000000)
            assert same_trace(read_trace(path), want)



class TestWritersMatchReference:
    """The writers built on write_csv give the bytes of the per-row
    f-string writers they replaced, on Python and numpy scalars alike,
    -0.0, 1e300 and +-5e-7 (which round to -0.000000 and 0.000000)
    included."""

    EDGE = [-0.0, 0.0, 1e300, 5e-7, -5e-7, 5e-6, -1e300, 3.7]

    @staticmethod
    def same_bytes(tmp_path, write, reference, *args):
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write(path, *args)
        reference(ref, *args)
        assert path.read_bytes() == ref.read_bytes()

    def detection(self, n_events):
        """Residuals that cross epsilon n_events times (0, 1 or 5), on the
        edge times."""
        r = np.array([-0.0, 0.0, 1e300, 5e-7, 5e-7, 5e-6, 3.7, 1e-300])
        epsilon = {0: 1e301, 1: 1e300, 5: 5e-7}[n_events]
        det = sentinel.DetectionTrace(t_s=np.array(self.EDGE), r=r,
                                      epsilon=epsilon)
        assert det.crossings == n_events
        return det

    @pytest.mark.parametrize("n_events", [0, 1, 5])
    def test_detection_and_events(self, tmp_path, n_events):
        det = self.detection(n_events)
        self.same_bytes(tmp_path, sentinel.write_detection,
                        reference_write_detection, det)
        self.same_bytes(tmp_path, sentinel.write_events,
                        reference_write_events, det)

    def test_prediction_csv(self, tmp_path):
        v = np.array(self.EDGE + [1.0]).reshape(3, 3)
        trace = make_trace(v, i=np.array([0.0, -0.0, -5e-7]))
        preds = v[1:, ::-1].copy()
        residuals = np.array([-0.0, 1e300])
        self.same_bytes(tmp_path, pipeline.write_prediction_csv,
                        reference_write_prediction_csv, trace, preds,
                        residuals)

    def test_loss_curve(self, tmp_path):
        numpy_scalars = list(np.array(self.EDGE[::-1]))
        for history in (BoostHistory(self.EDGE, self.EDGE[::-1]),
                        BoostHistory(numpy_scalars, self.EDGE),
                        BoostHistory()):
            self.same_bytes(tmp_path, reports.write_loss_curve,
                            reference_write_loss_curve, history)
