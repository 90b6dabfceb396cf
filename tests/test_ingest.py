import textwrap

import numpy as np
import pytest

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
from cgwitness.errors import ConfigurationError, InvalidParameterError, ParseError


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
        with pytest.raises(InvalidParameterError):
            detector_to_source_scale(OpticalGeometry(), "angle")


class TestJointCounts:
    def test_integral_float_counts_coerced(self, geometry):
        jc = JointCounts(
            variable_pair="position",
            step=0.05,
            counts=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            geometry=geometry,
        )
        assert jc.counts.dtype == np.int64
        assert jc.total == 21

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

    def test_default_origins_are_centered(self, geometry):
        jc = JointCounts(
            variable_pair="momentum",
            step=0.02,
            counts=np.zeros((5, 7), dtype=np.int64) + 1,
            geometry=geometry,
        )
        assert (jc.i0, jc.j0) == (-2, -3)


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
