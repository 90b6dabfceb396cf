import io
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgwitness import (
    JointCounts,
    OpticalGeometry,
    detector_to_source_scale,
    ensure_matching_geometry,
    global_marginal,
    load_joint_counts,
    rebin,
    sample_joint_counts,
    save_joint_counts,
)
from cgwitness import ingest
from cgwitness.binning import MAX_INDEX
from cgwitness.errors import ConfigurationError, InvalidParameterError, ParseError
from conftest import traced_peak


class TestGeometry:
    def test_paper_defaults(self, geometry):
        assert geometry.f1_mm == 50.0
        assert geometry.f2_mm == 200.0
        assert geometry.f3_mm == 250.0
        assert geometry.lambda_mm == pytest.approx(6.5e-4)
        assert geometry.s_x_mm == 0.05
        assert geometry.s_p_mm == 0.02
        assert geometry.micrometer_step_mm == 0.01

    def test_base_bin_size_anchors(self, geometry):
        assert detector_to_source_scale(geometry, "position") == pytest.approx(
            0.025, abs=1e-15
        )
        assert detector_to_source_scale(geometry, "momentum") == pytest.approx(
            1.5466302294595288, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            OpticalGeometry(f1_mm=0.0)
        with pytest.raises(InvalidParameterError):
            OpticalGeometry(lambda_mm=-1.0)
        with pytest.raises(InvalidParameterError, match="f1_mm must be a finite positive number"):
            OpticalGeometry(f1_mm=True)  # bool is an int, and saves as "True"
        with pytest.raises(InvalidParameterError):
            detector_to_source_scale(OpticalGeometry(), "angle")

    def test_int_beyond_float_range_rejected(self):
        # math.isfinite would raise a bare OverflowError on it
        with pytest.raises(InvalidParameterError, match="f1_mm must be a finite positive number"):
            OpticalGeometry(f1_mm=10**400)

    def test_numpy_integers_accepted(self, tmp_path):
        g = OpticalGeometry(f1_mm=np.int64(50), f2_mm=np.int32(200))
        assert g == OpticalGeometry()
        jc = JointCounts("position", 0.05, np.ones((2, 2), dtype=np.int64), g)
        path = tmp_path / "scan.txt"
        save_joint_counts(jc, path)
        assert load_joint_counts(path).geometry == OpticalGeometry()


class TestJointCounts:
    @pytest.mark.parametrize(
        "counts", [[[1.0, 2.0], [3.0, 4.0]], [[1e19]]], ids=["integral", "above_int64"]
    )
    def test_float_counts_rejected(self, geometry, counts):
        # 1e19 would otherwise cast to a negative int64, with a RuntimeWarning
        with pytest.raises(InvalidParameterError, match="counts must be integers"):
            JointCounts("position", 0.05, np.array(counts), geometry)

    def test_counts_are_a_readonly_copy(self, geometry):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        jc = JointCounts("position", 0.05, counts, geometry)
        assert not jc.counts.flags.writeable and counts.flags.writeable
        assert not np.shares_memory(jc.counts, counts)

    def test_a_readonly_view_of_a_writable_base_is_copied(self, geometry):
        base = np.array([[1, 2], [3, 4]], dtype=np.int64)
        view = base.view()
        view.setflags(write=False)
        jc = JointCounts("position", 0.05, view, geometry)
        assert not jc.counts.flags.writeable and base.flags.writeable
        assert not np.shares_memory(jc.counts, base)

    def test_a_frozen_int64_array_that_owns_its_memory_is_kept(self, geometry):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        counts.setflags(write=False)
        assert JointCounts("position", 0.05, counts, geometry).counts.base is counts

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "writable"])
    def test_counts_cannot_be_made_writable(self, geometry, frozen):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        counts.setflags(write=not frozen)
        jc = JointCounts("position", 0.05, counts, geometry)
        with pytest.raises(ValueError):
            jc.counts.setflags(write=True)
        assert jc.counts.tolist() == [[1, 2], [3, 4]]

    def test_loaded_counts_cannot_be_made_writable(self, geometry, tmp_path):
        save_joint_counts(JointCounts("position", 0.05, np.array([[1, 2], [3, 4]]), geometry), tmp_path / "scan.txt")
        jc = load_joint_counts(tmp_path / "scan.txt")
        with pytest.raises(ValueError):
            jc.counts.setflags(write=True)

    def test_a_frozen_array_of_another_integer_type_is_copied(self, geometry):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int32)
        counts.setflags(write=False)
        jc = JointCounts("position", 0.05, counts, geometry)
        assert jc.counts.dtype == np.int64 and not jc.counts.flags.writeable
        assert jc.counts.tolist() == counts.tolist()

    def test_a_frozen_negative_count_is_still_refused(self, geometry):
        counts = np.array([[1, -2]], dtype=np.int64)
        counts.setflags(write=False)
        with pytest.raises(InvalidParameterError, match="counts must be nonnegative"):
            JointCounts("position", 0.05, counts, geometry)

    def test_non_integral_rejected(self, geometry):
        with pytest.raises(InvalidParameterError):
            JointCounts(
                variable_pair="position",
                step=0.05,
                counts=np.array([[1.5]]),
                geometry=geometry,
            )

    def test_negative_rejected(self, geometry):
        with pytest.raises(InvalidParameterError):
            JointCounts(
                variable_pair="position",
                step=0.05,
                counts=np.array([[-1]]),
                geometry=geometry,
            )

    def test_total_above_int64_rejected(self, geometry):
        big = 2**62
        ok = JointCounts("position", 0.05, np.array([[big - 1, big]]), geometry)
        assert ok.total == 2**63 - 1
        with pytest.raises(InvalidParameterError, match="total above"):
            JointCounts("position", 0.05, np.array([[big, big]]), geometry)

    @pytest.mark.parametrize("count", [2**63, 2**64 - 1])
    def test_an_unsigned_count_above_int64_is_a_total_above_it(self, geometry, count):
        with pytest.raises(InvalidParameterError, match="counts total above"):
            JointCounts("position", 0.05, np.array([[count]], dtype=np.uint64), geometry)

    def test_default_origins_are_centered(self, geometry):
        jc = JointCounts(
            variable_pair="momentum",
            step=0.02,
            counts=np.zeros((5, 7), dtype=np.int64) + 1,
            geometry=geometry,
        )
        assert (jc.i0, jc.j0) == (-2, -3)

    @pytest.mark.parametrize("key", ["i0", "j0"])
    @pytest.mark.parametrize("origin", [0.5, 2.0, True, np.bool_(False), "1"])
    def test_non_integer_origins_rejected(self, geometry, key, origin):
        with pytest.raises(InvalidParameterError, match=f"{key} must be an integer"):
            JointCounts("position", 0.05, np.ones((2, 2), dtype=np.int64), geometry, **{key: origin})

    @pytest.mark.parametrize(
        "step",
        [True, np.bool_(True), 10**400, 0, -0.05, "0.05"],
        ids=["bool", "numpy_bool", "beyond_float", "zero", "negative", "text"],
    )
    def test_bad_step_rejected(self, geometry, step):
        # True would save as "# step_mm=1.0"
        with pytest.raises(InvalidParameterError, match="step must be a finite positive number"):
            JointCounts("position", step, np.ones((2, 2), dtype=np.int64), geometry)

    def test_origins_keep_every_sum_and_difference_index_in_range(self, geometry):
        # i + j and i - j of these origins would wrap in int64
        ones = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="i0 must be at most"):
            JointCounts("position", 0.05, ones, geometry, i0=2**63 - 1, j0=2**63 - 1)
        half = MAX_INDEX // 2
        jc = JointCounts("position", 0.05, ones, geometry, i0=half - 1, j0=-half)
        assert global_marginal(jc, "+").grid.j_max == 1
        assert global_marginal(jc, "-").grid.j_max == MAX_INDEX
        for origins in ({"i0": half}, {"j0": -half - 1}):
            with pytest.raises(InvalidParameterError, match="must be at most"):
                JointCounts("position", 0.05, ones, geometry, **origins)

    def test_numpy_integer_origins_accepted(self, geometry):
        jc = JointCounts("position", 0.05, np.ones((2, 2), dtype=np.int64), geometry, np.int64(-4), np.int32(3))
        assert (jc.i0, jc.j0) == (-4, 3)


class TestGlobalMarginal:
    def test_hand_computed_diagonals(self, geometry):
        jc = JointCounts(
            variable_pair="position",
            step=0.05,
            counts=np.array([[1, 2], [3, 4]]),
            geometry=geometry,
            i0=0,
            j0=0,
        )
        plus = global_marginal(jc, "+")
        minus = global_marginal(jc, "-")
        w = detector_to_source_scale(geometry, "position")
        assert plus.grid.width == pytest.approx(w)
        assert list(plus.grid.indices) == [0, 1, 2]
        np.testing.assert_array_equal(plus.counts, [1, 2 + 3, 4])
        assert list(minus.grid.indices) == [-1, 0, 1]
        np.testing.assert_array_equal(minus.counts, [2, 1 + 4, 3])

    def test_counts_conserved(self, entangled_state, geometry):
        jc = sample_joint_counts(entangled_state, geometry, "momentum", 5e4, seed=2)
        for sign in "+-":
            assert global_marginal(jc, sign).counts.sum() == jc.total

    def test_bad_sign_rejected(self, entangled_state, geometry):
        jc = sample_joint_counts(entangled_state, geometry, "momentum", 1e4, seed=2)
        with pytest.raises(InvalidParameterError):
            global_marginal(jc, "x")

    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_trace_of_each_diagonal(self, data):
        # row, column, tall, wide and square scans run both loop directions
        kind = data.draw(st.sampled_from(["row", "column", "tall", "wide", "square"]))
        n = data.draw(st.integers(1, 9))
        rows, cols = {
            "row": (1, n), "column": (n, 1), "tall": (n + 1, n),
            "wide": (n, n + 1), "square": (n, n),
        }[kind]
        half = MAX_INDEX // 2
        i0 = data.draw(st.integers(-half, half - rows + 1))
        j0 = data.draw(st.integers(-half, half - cols + 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        counts = np.random.default_rng(seed).integers(0, 2**40, size=(rows, cols))
        jc = JointCounts("momentum", 0.05, counts, OpticalGeometry(), i0=i0, j0=j0)
        # '+': bin i0 + j0 + d holds the anti-diagonal r + col = d
        plus = global_marginal(jc, "+")
        expected = [int(np.trace(counts[:, ::-1], offset=cols - 1 - d)) for d in range(rows + cols - 1)]
        assert (plus.grid.j_min, plus.grid.j_max) == (i0 + j0, i0 + j0 + rows + cols - 2)
        assert plus.counts.tolist() == expected
        # '-': bin i0 - j0 + e holds the diagonal r - col = e
        minus = global_marginal(jc, "-")
        expected = [int(np.trace(counts, offset=-e)) for e in range(1 - cols, rows)]
        assert (minus.grid.j_min, minus.grid.j_max) == (i0 - j0 - cols + 1, i0 - j0 + rows - 1)
        assert minus.counts.tolist() == expected

    @settings(max_examples=150)
    @given(data=st.data())
    def test_blocks_match_trace_of_each_diagonal(self, data):
        # line counts around multiples of 16 end the lines on every block
        # fill; small cell budgets set the block height instead of the lines
        short = data.draw(st.sampled_from([1, 2, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65]))
        long = short + data.draw(st.integers(0, 40))
        rows, cols = data.draw(st.sampled_from([(short, long), (long, short)]))
        block = data.draw(st.sampled_from([1, 40, 300, ingest._MARGINAL_BLOCK]))
        half = MAX_INDEX // 2
        i0 = data.draw(st.integers(-half, half - rows + 1))
        j0 = data.draw(st.integers(-half, half - cols + 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        counts = np.random.default_rng(seed).integers(0, 2**40, size=(rows, cols))
        jc = JointCounts("momentum", 0.05, counts, OpticalGeometry(), i0=i0, j0=j0)
        with mock.patch.object(ingest, "_MARGINAL_BLOCK", block):
            plus, minus = global_marginal(jc, "+"), global_marginal(jc, "-")
        flipped = counts[:, ::-1]
        assert plus.grid.j_min == i0 + j0
        assert plus.counts.tolist() == [
            int(np.trace(flipped, offset=cols - 1 - d)) for d in range(rows + cols - 1)
        ]
        assert minus.grid.j_min == i0 - j0 - cols + 1
        assert minus.counts.tolist() == [
            int(np.trace(counts, offset=-e)) for e in range(1 - cols, rows)
        ]

    def test_makes_no_scan_sized_temporaries(self, geometry):
        counts = np.random.default_rng(3).integers(0, 50, size=(500, 500))
        jc = JointCounts("position", 0.05, counts, geometry)
        for sign in "+-":
            _, peak = traced_peak(lambda: global_marginal(jc, sign))
            assert peak < 0.1 * jc.counts.nbytes, (sign, peak)


class TestRebinMarginal:
    def test_width_and_conservation(self, entangled_state, geometry):
        jc = sample_joint_counts(entangled_state, geometry, "position", 5e4, seed=4)
        h = global_marginal(jc, "+")
        r = rebin(h, 5)
        assert r.grid.width == pytest.approx(5 * h.grid.width)
        assert r.counts.sum() == h.counts.sum()

    def test_even_factor_rejected(self, entangled_state, geometry):
        jc = sample_joint_counts(entangled_state, geometry, "position", 1e4, seed=4)
        with pytest.raises(InvalidParameterError):
            rebin(global_marginal(jc, "+"), 2)


class TestRoundTrip:
    def test_save_load_identity(self, entangled_state, geometry, tmp_path):
        jc = sample_joint_counts(entangled_state, geometry, "momentum", 1e5, seed=21)
        path = tmp_path / "scan.txt"
        save_joint_counts(jc, path)
        back = load_joint_counts(path)
        np.testing.assert_array_equal(back.counts, jc.counts)
        assert back.variable_pair == jc.variable_pair
        assert back.step == jc.step
        assert (back.i0, back.j0) == (jc.i0, jc.j0)
        assert back.geometry == jc.geometry

    def test_numpy_scalar_headers_round_trip(self, tmp_path):
        geometry = OpticalGeometry(f1_mm=np.float64(50.0), s_x_mm=np.float64(0.05))
        jc = JointCounts("position", np.float64(0.05), np.ones((2, 3), dtype=np.int64), geometry)
        path = tmp_path / "scan.txt"
        save_joint_counts(jc, path)
        assert "# step_mm=0.05\n# f1_mm=50.0\n" in path.read_text()
        back = load_joint_counts(path)
        assert (back.step, back.geometry) == (0.05, OpticalGeometry())

    @settings(max_examples=150)
    @given(data=st.data())
    def test_writer_matches_per_cell_str(self, tmp_path_factory, data):
        # the writer formats each distinct count below min(max + 1, cells)
        # once; drawing values up to cells + 2 puts cells at, just below and
        # just above that bound, and a filler cell reaches 2**63 - 1
        n = data.draw(st.integers(2, 9))
        rows, cols = data.draw(st.sampled_from([(1, 1), (1, n), (n, 1), (n, n)]))
        values = data.draw(
            st.lists(st.integers(0, rows * cols + 2), min_size=rows * cols, max_size=rows * cols)
        )
        if data.draw(st.booleans()):
            cell = data.draw(st.integers(0, rows * cols - 1))
            values[cell] = 0
            values[cell] = 2**63 - 1 - sum(values)  # the total stays in int64
        counts = np.array(values, dtype=np.int64).reshape(rows, cols)
        jc = JointCounts(
            data.draw(st.sampled_from(["position", "momentum"])),
            data.draw(st.floats(1e-6, 1e3)),
            counts,
            OpticalGeometry(f2_mm=data.draw(st.floats(1.0, 1e4))),
            data.draw(st.integers(-(2**40), 2**40)),
            data.draw(st.integers(-(2**40), 2**40)),
        )
        path = tmp_path_factory.mktemp("writer") / "scan.txt"
        save_joint_counts(jc, path)
        lines = path.read_bytes().split(b"\n")
        reference = [",".join(str(v) for v in row).encode() for row in counts.tolist()]
        assert lines[-len(reference) - 1 :] == reference + [b""]
        back = load_joint_counts(path)
        np.testing.assert_array_equal(back.counts, jc.counts)
        assert (back.variable_pair, back.step, back.geometry) == (jc.variable_pair, jc.step, jc.geometry)
        assert (back.i0, back.j0) == (jc.i0, jc.j0)

    @pytest.mark.parametrize(
        "counts",
        [[[0]], [[2**63 - 1]], [[0, 0, 0]], [[3], [0], [1]], [[0, 4], [3, 2]], [[2**62, 2**62 - 1]]],
        ids=["zero", "int64_max", "all_zero", "column_above_table", "square_at_table", "two_above"],
    )
    def test_writer_named_matrices(self, geometry, tmp_path, counts):
        save_joint_counts(JointCounts("position", 0.05, np.array(counts), geometry), tmp_path / "scan.txt")
        lines = (tmp_path / "scan.txt").read_text().splitlines()
        assert lines[-len(counts) :] == [",".join(map(str, row)) for row in counts]

    def test_scale_survives_round_trip_to_4_sig_figs(
        self, entangled_state, geometry, tmp_path
    ):
        jc = sample_joint_counts(entangled_state, geometry, "momentum", 1e4, seed=3)
        path = tmp_path / "scan.txt"
        save_joint_counts(jc, path)
        back = load_joint_counts(path)
        scale = detector_to_source_scale(back.geometry, "momentum")
        assert abs(scale - 1.546) < 1e-3  # one unit in the 4th significant digit


def _write(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(textwrap.dedent(body))
    return path


class TestParseErrors:
    def _header(self, **overrides):
        fields = {
            "variable_pair": "position",
            "step_mm": 0.05,
            "f1_mm": 50.0,
            "f2_mm": 200.0,
            "f3_mm": 250.0,
            "lambda_mm": 0.00065,
            "s_x_mm": 0.05,
            "s_p_mm": 0.02,
            "micrometer_step_mm": 0.01,
        }
        fields.update(overrides)
        return "".join(f"# {k}={v}\n" for k, v in fields.items() if v is not None)

    def test_missing_key(self, tmp_path):
        path = _write(tmp_path, self._header(f3_mm=None) + "1,2\n3,4\n")
        with pytest.raises(ParseError, match="f3_mm"):
            load_joint_counts(path)

    def test_no_rows(self, tmp_path):
        path = _write(tmp_path, self._header())
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n3,4,5\n")
        with pytest.raises(ParseError) as exc:
            load_joint_counts(path)
        assert exc.value.line_number == 11

    def test_negative_count(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n3,-4\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_fractional_count(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n3,4.5\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n3,four\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_bad_variable_pair(self, tmp_path):
        path = _write(tmp_path, self._header(variable_pair="angle") + "1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_non_numeric_header_value(self, tmp_path):
        path = _write(tmp_path, self._header(f1_mm="fifty") + "1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_header_after_data(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n# step_mm=0.1\n3,4\n")
        with pytest.raises(ParseError):
            load_joint_counts(path)

    def test_count_above_int64_reports_line_number(self, tmp_path):
        path = _write(tmp_path, self._header() + "1,2\n3,9223372036854775808\n")
        with pytest.raises(ParseError) as exc:
            load_joint_counts(path)
        assert exc.value.line_number == 11

    def test_total_above_int64(self, tmp_path):
        row = "5000000000000000000,5000000000000000000\n"
        path = _write(tmp_path, self._header() + row + "1,2\n")
        with pytest.raises(ParseError, match="total above"):
            load_joint_counts(path)

    def test_non_utf8_bytes_report_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(self._header().encode() + b"1,2\n3,\xff4\n")
        with pytest.raises(ParseError) as exc:
            load_joint_counts(path)
        assert exc.value.line_number == 11


_HEADER = "".join(
    f"# {k}={v}\n"
    for k, v in {
        "variable_pair": "momentum",
        "step_mm": 0.02,
        "f1_mm": 50.0,
        "f2_mm": 200.0,
        "f3_mm": 250.0,
        "lambda_mm": 0.00065,
        "s_x_mm": 0.05,
        "s_p_mm": 0.02,
        "micrometer_step_mm": 0.01,
        "i0": -1,
        "j0": 2,
    }.items()
).encode()


def _outcome(load):
    """What a parse gives: the JointCounts fields, or the ParseError text and line."""
    try:
        jc = load()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line_number)
    return (
        jc.variable_pair,
        jc.step,
        jc.geometry,
        jc.i0,
        jc.j0,
        jc.counts.shape,
        jc.counts.dtype,
        jc.counts.tolist(),
    )


def _assert_paths_agree(path, data):
    """load_joint_counts (fast path + fallback) against the line reader alone."""
    path.write_bytes(data)

    def line_by_line():
        header, start, lineno = ingest._read_header(io.BytesIO(data))
        rows = ingest._parse_rows(data[start:], lineno)
        return ingest._joint_counts(header, np.array(rows, dtype=np.int64))

    assert _outcome(lambda: load_joint_counts(path)) == _outcome(line_by_line)


#: Data blocks, each after the valid _HEADER, covering the forms where
#: a numpy parser and int() could part ways.
_DIFFERENTIAL_BODIES = {
    "plain": b"1,2,3\n4,5,6\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "cr_only": b"1,2\r3,4\r",
    "mixed_endings": b"1,2\r\n3,4\r5,6\n",
    "blank_lines_in_data": b"1,2\n\n\r\n3,4\n\n",
    "whitespace_line_in_data": b"1,2\n \t\n3,4\n",
    "signs_and_zeros": b"+5,-0\n00007,0\n",
    "padded_tokens": b" 1 ,\t2\t\n\x0b3\x0b, 4 \n",
    "nbsp_padding": "\xa01,2\xa0\n3,4\n".encode(),
    "underscore": b"1_000,2\n3,4\n",
    "fullwidth_digits": "\uff11,2\n3,4\n".encode(),
    "arabic_indic_digits": "\u0663,2\n3,4\n".encode(),
    "int64_max": b"9223372036854775807,0\n0,0\n",
    "int64_max_plus_one": b"9223372036854775808,0\n0,0\n",
    "huge": b"1,2\n3,99999999999999999999999\n",
    "unit_separator_in_line": b"1,\x1c2\n3\x1f,4\n",
    "letter_read_as_digit": "1,2\n3,4\u01fe\n".encode(),
    "form_feed_in_line": b"1,2\x0c\n3,\x0c4\n",
    "form_feed_line": b"1,2\n\x0c\n3,4\n",
    "line_separator_in_line": "1,\u20282\n3,4\n".encode(),
    "next_line_in_line": "1,\x852\n3,4\n".encode(),
    "non_utf8": b"1,2\n3,\xff4\n",
    "non_utf8_space": b"1,2\n3,\xa04\n",
    "header_after_data": b"1,2\n# step_mm=0.1\n3,4\n",
    "hash_in_token": b"1,2\n3,#4\n",
    "ragged": b"1,2\n3,4,5\n",
    "short_last_row": b"1,2\n3\n",
    "trailing_comma": b"1,2,\n3,4,\n",
    "empty_token": b"1,,2\n3,4,5\n",
    "one_row": b"1,2,3,4\n",
    "one_column": b"1\n2\n3\n",
    "one_cell": b"7",
    "negative": b"1,2\n3,-4\n",
    "fractional": b"1,2\n3,4.5\n",
    "exponent": b"1e2,2\n3,4\n",
    "hex": b"0x10,2\n3,4\n",
    "nul": b"1\x00,2\n3,4\n",
    "all_zero": b"0,0\n0,0\n",
    "total_above_int64": b"5000000000000000000,5000000000000000000\n1,2\n",
    "no_rows": b"\n\n",
}


#: Rows that fill two parser chunks exactly.
_LONG_ROWS = b"1,2\n" * (2 * ingest._CHUNK // 4)

#: Whole files at the seams of the streamed reader: header reads, the
#: chunked parser and the ends of the file.
_SEAM_FILES = {
    "header_line_longer_than_a_read": _HEADER + b"# note=" + b"x" * (2 * ingest._CHUNK) + b"\n1,2\n3,4\n",
    "header_longer_than_a_read": _HEADER * (2 * ingest._CHUNK // len(_HEADER) + 1) + b"1,2\n3,4\n",
    "hash_in_last_chunk": _HEADER + _LONG_ROWS + b"3,#4\n",
    "unit_separator_in_last_chunk": _HEADER + _LONG_ROWS + b"3,\x1c4\n",
    "long_block": _HEADER + _LONG_ROWS + b"3,4\n",
    "no_trailing_newline": _HEADER + b"1,2\n3,4",
    "header_only": _HEADER,
    "header_only_no_trailing_newline": _HEADER.rstrip(b"\n"),
    "empty_file": b"",
    "cr_only_header": _HEADER.replace(b"\n", b"\r") + b"1,2\n3,4\n",
    "cr_only_file": (_HEADER + b"1,2\n3,4\n").replace(b"\n", b"\r"),
    "cr_crlf_lf_header": _HEADER.replace(b"\n", b"\r", 4).replace(b"\n", b"\r\n", 4) + b"1,2\n3,4\n",
    "cr_only_header_error": _HEADER.replace(b"# f3_mm=250.0", b"# f3_mm 250.0").replace(b"\n", b"\r")
    + b"1,2\n3,4\n",
    "cr_before_first_row": _HEADER + b"\r\r1,2\r\n3,4\n",
}


class TestIngestPaths:
    """Every file gives what the line-by-line parser alone gives."""

    @pytest.mark.parametrize("body", _DIFFERENTIAL_BODIES.values(), ids=_DIFFERENTIAL_BODIES)
    def test_named_forms(self, tmp_path, body):
        _assert_paths_agree(tmp_path / "scan.txt", _HEADER + body)

    def test_header_errors_keep_their_line_numbers(self, tmp_path):
        data = _HEADER.replace(b"# f3_mm=250.0", b"# f3_mm 250.0") + b"1,2\n3,4\n"
        _assert_paths_agree(tmp_path / "scan.txt", data)
        with pytest.raises(ParseError) as exc:
            load_joint_counts(tmp_path / "scan.txt")
        assert exc.value.line_number == 5

    _TOKENS = st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(
            ["+5", "-0", "-3", "00007", "1_000", "\uff17", "\u0663", "\u01fe", "", "x", "1.0", "#1",
             str(2**63 - 1), str(2**63), str(2**64)]
        ),
    )
    _PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\xa0", "\x1c", "\x85", "\u2028", "\u3000"])
    _ENDINGS = st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"])
    _EXTRA_LINES = st.sampled_from([b"", b" ", "\x0c".encode(), b"# step_mm=1", b"\xff", b"1,2"])

    @settings(max_examples=150)
    @given(data=st.data())
    def test_mutated_valid_files(self, tmp_path_factory, data):
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 4))
        lines = []
        for _ in range(rows):
            tokens = data.draw(st.lists(st.integers(0, 99).map(str), min_size=cols, max_size=cols))
            for k in data.draw(st.lists(st.integers(0, cols - 1), max_size=2)):
                tokens[k] = data.draw(self._PADS) + data.draw(self._TOKENS) + data.draw(self._PADS)
            line = ",".join(tokens)
            if data.draw(st.integers(0, 9)) == 0:
                line += ","
            if data.draw(st.integers(0, 9)) == 0:
                line = line[: data.draw(st.integers(0, len(line)))]
            lines.append(line.encode())
        for _ in range(data.draw(st.integers(0, 2))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(self._EXTRA_LINES))
        body = b"".join(line + data.draw(self._ENDINGS) for line in lines)
        _assert_paths_agree(tmp_path_factory.mktemp("fuzz") / "scan.txt", _HEADER + body)

    @settings(max_examples=100)
    @given(body=st.binary(max_size=64), with_header=st.booleans())
    def test_arbitrary_bytes(self, tmp_path_factory, body, with_header):
        data = (_HEADER if with_header else b"") + body
        _assert_paths_agree(tmp_path_factory.mktemp("fuzz") / "scan.txt", data)

    def test_read_header_leaves_the_count_block_alone(self):
        # a short header and ~2 MB of counts: only the header lines are read
        row = b",".join(b"%d" % v for v in range(1000, 1400)) + b"\n"
        data = _HEADER + row * (2_000_000 // len(row))
        (_, start, lineno), peak = traced_peak(lambda: ingest._read_header(io.BytesIO(data)))
        assert (start, lineno) == (len(_HEADER), _HEADER.count(b"\n") + 1)
        assert peak < 64 * 1024, peak

    def test_load_holds_one_count_array(self, entangled_state, tmp_path):
        # a 965 x 965 position scan as in the large_scan benchmark: 1.97 MB of
        # text, 7.45 MB of counts. Reading the whole file, slicing its count
        # block and copying the parsed matrix peaked at 2.13x the counts;
        # streamed into np.loadtxt, 1.21x; parsed in chunks into the kept
        # matrix it peaks at 1.04x
        jc = sample_joint_counts(entangled_state, OpticalGeometry(s_x_mm=0.005), "position", 1e7, seed=5)
        save_joint_counts(jc, tmp_path / "scan.txt")
        loaded, peak = traced_peak(lambda: load_joint_counts(tmp_path / "scan.txt"))
        np.testing.assert_array_equal(loaded.counts, jc.counts)
        assert not loaded.counts.flags.writeable
        assert peak < 1.6 * loaded.counts.nbytes, peak / loaded.counts.nbytes

    @pytest.mark.parametrize("data", _SEAM_FILES.values(), ids=_SEAM_FILES)
    def test_stream_seams(self, tmp_path, data):
        _assert_paths_agree(tmp_path / "scan.txt", data)

    @pytest.mark.parametrize(
        "name",
        [
            "header_line_longer_than_a_read",
            "header_longer_than_a_read",
            "no_trailing_newline",
            "cr_only_header",
            "cr_only_file",
            "cr_crlf_lf_header",
            "cr_before_first_row",
        ],
    )
    def test_seam_files_give_the_plain_scan(self, tmp_path, name):
        plain, seam = tmp_path / "plain.txt", tmp_path / "seam.txt"
        plain.write_bytes(_HEADER + b"1,2\n3,4\n")
        seam.write_bytes(_SEAM_FILES[name])
        assert _outcome(lambda: load_joint_counts(seam)) == _outcome(lambda: load_joint_counts(plain))

    def test_cr_only_header_errors_keep_their_line_numbers(self, tmp_path):
        (tmp_path / "scan.txt").write_bytes(_SEAM_FILES["cr_only_header_error"])
        with pytest.raises(ParseError, match="malformed header") as exc:
            load_joint_counts(tmp_path / "scan.txt")
        assert exc.value.line_number == 5

    @settings(max_examples=150)
    @given(pieces=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"# a=1", b"#a", b"1,2", b" ", b"\xff"])))
    def test_header_read_by_lf_pieces_matches_a_whole_read(self, pieces):
        # a one-element list hands _read_header the whole file as one piece
        data = b"".join(pieces)

        def outcome(source):
            try:
                return ingest._read_header(source)
            except ParseError as exc:
                return ("ParseError", str(exc), exc.line_number)

        assert outcome(io.BytesIO(data)) == outcome([data])

    def test_saved_scan_takes_the_fast_path(self, entangled_state, geometry, tmp_path):
        jc = sample_joint_counts(entangled_state, geometry, "position", 1e4, seed=5)
        save_joint_counts(jc, tmp_path / "scan.txt")
        with open(tmp_path / "scan.txt", "rb") as fh:
            _, start, _ = ingest._read_header(fh)
            fh.seek(start)
            counts = ingest._parse_counts(fh)
        np.testing.assert_array_equal(counts, jc.counts)

    def test_multi_chunk_saved_scan_takes_the_fast_path(self, geometry, tmp_path):
        # the line reader takes ~0.2 s on the large_scan files: falling back
        # on a multi-chunk scan, with LF or CR LF ends, must fail here
        counts = np.random.default_rng(7).poisson(3.0, size=(400, 400))
        save_joint_counts(JointCounts("position", 0.05, counts, geometry), tmp_path / "scan.txt")
        data = (tmp_path / "scan.txt").read_bytes()
        _, start, _ = ingest._read_header(io.BytesIO(data))
        assert len(data) - start > 4 * ingest._CHUNK
        for block in (data[start:], data[start:].replace(b"\n", b"\r\n")):
            got = ingest._parse_counts(io.BytesIO(block))
            assert got is not None
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, counts)

    @settings(max_examples=200)
    @given(
        chunk=st.integers(1, 97),
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        ending=st.sampled_from([b"\n", b"\r\n"]),
        final_ending=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunk_seams_give_the_line_reader_matrix(self, chunk, rows, cols, ending, final_ending, seed):
        # values of 1 to 18 digits, some with leading zeros up to 18 digits,
        # read in chunks from 1 to 97 bytes: every seam and multi-chunk lines
        rng = np.random.default_rng(seed)
        digits = rng.integers(1, ingest._MAX_DIGITS + 1, size=(rows, cols))
        values = rng.integers(0, 10**digits)
        zeros = np.where(rng.random((rows, cols)) < 0.2, rng.integers(0, ingest._MAX_DIGITS + 1, size=(rows, cols)), 0)
        lines = [
            ",".join("0" * min(z, ingest._MAX_DIGITS - len(str(v))) + str(v) for v, z in zip(row, pad))
            for row, pad in zip(values.tolist(), zeros.tolist())
        ]
        block = ending.join(line.encode() for line in lines) + (ending if final_ending else b"")
        want = np.array(ingest._parse_rows(block, 1), dtype=np.int64)
        with mock.patch.object(ingest, "_CHUNK", chunk):
            got = ingest._parse_counts(io.BytesIO(block))
        assert got is not None
        assert got.dtype == np.int64 and got.shape == want.shape == (rows, cols)
        np.testing.assert_array_equal(got, want)

    def test_digit_arithmetic_does_not_depend_on_scalar_promotion(self):
        # numpy 1.x kept a uint8 array times an int64 scalar as uint8, as
        # numpy 2 does with a Python int: with the powers of ten as Python
        # ints, any product taken in uint8 wraps or overflows here
        block = b"999,1000,123456789012345678\n007,255,256\n"
        want = np.array(ingest._parse_rows(block, 1), dtype=np.int64)
        with mock.patch.object(ingest, "_POW10", [10**k for k in range(ingest._MAX_DIGITS)]):
            got = ingest._parse_counts(io.BytesIO(block))
        assert got is not None
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "block",
        [
            b"1_000,2\n3,4\n",
            b"1,2\r3,4\r",
            b"1,2\n# i0=0\n3,4\n",
            b"1,2\n3,-4\n",
            b"1,\xff\n",
            b"1,\x1c2\n",
            "1,2\u01fe\n".encode(),
            b"",
            _LONG_ROWS + b"3,#4\n",
            _LONG_ROWS + b"3,\x1c4\n",
            b"1, 2\n3,4\n",
            b"1,2\n3,4\t\n",
            b"+5,2\n3,4\n",
            b"1,,2\n3,4,5\n",
            b",1\n2,3\n",
            b"1,\n2,\n",
            b"1,2\n\n3,4\n",
            b"1234567890123456789,2\n3,4\n",
            b"1,2\r3,4\n",
            b"1,2\n3,4\r",
            b"1,2\n3\n4,5\n",
            b"1,2\n3\n4,5,6\n",
            b"11,22\n3\n4\n55,66\n",
            _LONG_ROWS + b"3\n",
        ],
        ids=[
            "underscore", "cr_only", "hash", "negative", "non_utf8", "unit_separator", "non_ascii",
            "empty", "hash_in_last_chunk", "unit_separator_in_last_chunk", "space", "tab", "plus",
            "empty_token", "leading_comma", "trailing_comma", "blank_line", "19_digits", "lone_cr",
            "final_lone_cr", "ragged", "ragged_same_total", "ragged_line_ends_in_place",
            "short_row_in_last_chunk",
        ],
    )
    def test_fast_path_refuses(self, block, tmp_path):
        assert ingest._parse_counts(io.BytesIO(block)) is None
        _assert_paths_agree(tmp_path / "scan.txt", _HEADER + block)

    @pytest.mark.parametrize(
        "block",
        [b"1,2\r3,4\n", b"1,2\n3,4\r", b"1,2\n3\n4,5,6\n", b"11,22\n3\n4\n55,66\n", b"1,,2\n3,4,5\n",
         b"1,2\n1234567890123456789\n"],
        ids=["lone_cr", "final_lone_cr", "ragged_same_total", "ragged_line_ends_in_place", "empty_token",
             "19_digits"],
    )
    def test_fast_path_refuses_at_every_chunk_size(self, block):
        for chunk in range(1, len(block) + 1):
            with mock.patch.object(ingest, "_CHUNK", chunk):
                assert ingest._parse_counts(io.BytesIO(block)) is None, chunk


class TestGeometryMatching:
    def test_matching_passes(self, entangled_state, geometry):
        a = sample_joint_counts(entangled_state, geometry, "position", 1e4, seed=1)
        b = sample_joint_counts(entangled_state, geometry, "momentum", 1e4, seed=2)
        ensure_matching_geometry(a, b)

    def test_mismatch_names_the_key(self, entangled_state, geometry):
        other = OpticalGeometry(f3_mm=300.0)
        a = sample_joint_counts(entangled_state, geometry, "position", 1e4, seed=1)
        b = sample_joint_counts(entangled_state, other, "momentum", 1e4, seed=2)
        with pytest.raises(ConfigurationError, match="f3_mm"):
            ensure_matching_geometry(a, b)
