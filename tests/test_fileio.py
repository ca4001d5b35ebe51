"""Text formats: write/read round trips and rejection of malformed input."""

import codecs
import os
from dataclasses import replace
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from armcal import fileio, reference, reports
from armcal.errors import (
    MeasurementFormatError,
    ModelFormatError,
    NoiseFormatError,
)
from armcal.fileio import (
    format_ground_truth,
    format_measurements,
    format_model,
    format_noise_table,
    load_measurements,
    load_model,
    load_noise_table,
    parse_measurements,
    parse_model,
    parse_noise_table,
    write_measurements,
    write_text,
)
from armcal.estimator import EstimationResult
from armcal.kinematics import forward_kinematics
from armcal.regressor import StackedSystem, Study
from armcal.simulator import simulate_measurements
from row_level import residuals

UM = 1e-6

#: The bundled model as it was once shipped, a model file in the package.
KR270_MODEL = """\
# Bundled heavy 6R manipulator (KR-270 class geometry).
# Lengths in meters, angles in degrees.  Markers sit on a 200 mm-radius
# tool plate, 50 mm proud of the flange; the load hangs at marker 0.
convention modified-dh
base xyz=0,0,0 rpy=0,0,0
joint type=revolute a=0 alpha=0 d=0.675 theta_offset=0
joint type=revolute a=0.350 alpha=-90 d=0 theta_offset=0
joint type=revolute a=1.150 alpha=0 d=0 theta_offset=-90
joint type=revolute a=0.041 alpha=-90 d=1.200 theta_offset=0
joint type=revolute a=0 alpha=90 d=0 theta_offset=0
joint type=revolute a=0 alpha=-90 d=0.240 theta_offset=180
tool xyz=0,0,0.100 rpy=0,0,0
marker xyz=0.200,0,0.050
marker xyz=-0.100,0.173205,0.050
marker xyz=-0.100,-0.173205,0.050
"""


def _bits(values) -> bytes:
    """The float64 bytes of ``values``: equal only if every entry is, signed zeros included."""
    return np.asarray(values, dtype=np.float64).tobytes()


class TestModelFormat:
    def test_bundled_model_parses(self, nominal_model):
        assert nominal_model.n_joints == 6
        assert len(nominal_model.markers) == 3
        assert nominal_model.joints[0].kind == "revolute"

    def test_bundled_model_equals_the_former_model_file_bit_for_bit(self):
        built, parsed = reference.nominal_model(), parse_model(KR270_MODEL.splitlines())
        assert [j.kind for j in built.joints] == [j.kind for j in parsed.joints]
        assert _bits([[j.a, j.alpha, j.d, j.theta] for j in built.joints]) == \
            _bits([[j.a, j.alpha, j.d, j.theta] for j in parsed.joints])
        assert _bits(built.base) == _bits(parsed.base)
        assert _bits(built.tool) == _bits(parsed.tool)
        assert _bits(built.markers) == _bits(parsed.markers)

    def test_round_trip_preserves_kinematics(self, nominal_model):
        text = format_model(nominal_model)
        again = parse_model(text.splitlines())
        for q in reference.configurations_rad()[:3]:
            for marker in range(3):
                assert_allclose(
                    forward_kinematics(again, q, marker).position,
                    forward_kinematics(nominal_model, q, marker).position,
                    atol=1e-12,
                )

    def test_round_trip_preserves_joint_records_exactly(self, nominal_model):
        again = parse_model(format_model(nominal_model).splitlines())
        for a, b in zip(again.joints, nominal_model.joints):
            assert a.kind == b.kind
            assert a.a == b.a
            assert a.d == b.d
            assert a.alpha == pytest.approx(b.alpha, abs=1e-15)
            assert a.theta == pytest.approx(b.theta, abs=1e-15)
        for ma, mb in zip(again.markers, nominal_model.markers):
            assert_array_equal(ma, mb)

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        convention modified-dh

        joint type=revolute a=0.1 alpha=0 d=0.2 theta_offset=90  # trailing note
        marker xyz=0,0,0
        """
        model = parse_model(text.splitlines())
        assert model.joints[0].a == 0.1
        assert model.joints[0].theta == pytest.approx(np.pi / 2.0)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("convention classic-dh", "unsupported convention"),
            ("flange xyz=0,0,0", "unknown directive"),
            ("joint type=revolute a=wide", "bad joint record"),
            ("marker radius=3", "marker needs an xyz field"),
            ("marker xyz=1,2", "expected 3 comma-separated values"),
            ("base xyz=a,b,c", "non-numeric vector component"),
            ("base xyz=0,0,0 rpy=inf,0,0", "non-finite vector component in 'inf,0,0'"),
            ("tool rpy=0,1e400,0", "non-finite vector component in '0,1e400,0'"),
            ("tool xyz=0,-inf,0", "non-finite vector component"),
            ("marker xyz=nan,0,0", "non-finite vector component"),
            ("joint type=revolute alpha=inf", "bad joint record"),
            ("base xyz", "expected key=value"),
            # typos and repeats, which would otherwise give a wrong model silently
            ("joint type=revolute a=0.35 alfa=-90", "unknown joint field 'alfa'"),
            ("joint a=1 a=2", "repeated joint field 'a'"),
            ("marker xyz=0,0,0 rpy=1,2,3", "unknown marker field 'rpy'"),
            ("base xyz=0,0,0 xyz=0,0,1", "repeated base field 'xyz'"),
            ("tool xyz=0,0,0.1 theta_offset=5", "unknown tool field 'theta_offset'"),
        ],
    )
    def test_malformed_lines_carry_location(self, line, message):
        lines = ["convention modified-dh", line, "joint type=revolute", "marker xyz=0,0,0"]
        with pytest.raises(ModelFormatError, match=message) as exc:
            parse_model(lines, source="model.txt")
        assert "model.txt:2" in str(exc.value)

    @pytest.mark.parametrize("kind", ["base", "tool"])
    def test_repeated_pose_line_rejected(self, kind):
        lines = [f"{kind} xyz=0,0,0", "joint type=revolute", "marker xyz=0,0,0", f"{kind} xyz=1,0,0"]
        with pytest.raises(ModelFormatError, match=f"model.txt:4: repeated {kind} line"):
            parse_model(lines, source="model.txt")

    def test_model_without_joints_rejected(self):
        with pytest.raises(ModelFormatError, match="no joints"):
            parse_model(["marker xyz=0,0,0"])

    def test_model_without_markers_rejected(self):
        with pytest.raises(ModelFormatError, match="no markers"):
            parse_model(["joint type=revolute"])

    def test_unreadable_path_reports_model_error(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "absent.model")


def _refuse_several_rows(monkeypatch):
    """Make the one number reader refuse every call over several rows but no row alone,
    so a reader has no line to name."""
    read_rows = fileio._read_rows

    def refuse_several(rows, dtype):
        if len(rows) > 1:
            raise ValueError("refused")
        return read_rows(rows, dtype)

    monkeypatch.setattr(fileio, "_read_rows", refuse_several)


@pytest.fixture(scope="module")
def study(nominal_model):
    design = reference.study_design(seed=11, markers=2, repetitions=2)
    return simulate_measurements(design, nominal_model)


class TestMeasurementFormat:
    def test_round_trip(self, study, tmp_path):
        path = write_measurements(tmp_path / "m.tsv", study)
        again = load_measurements(path)
        assert len(again) == len(study)
        for name in ("config", "marker", "rep", "fmarker"):
            assert_array_equal(getattr(again, name), getattr(study, name))
        assert_allclose(again.q, study.q, rtol=1e-12, atol=1e-15)
        assert_allclose(again.p0, study.p0, rtol=1e-12)
        assert_allclose(again.p, study.p, rtol=1e-12)
        assert_allclose(again.force, study.force, rtol=1e-15, atol=0)

    def test_every_joint_column_is_read_in_degrees(self, study):
        # the file does not know which joints are prismatic: a travel of 0.5 m is written, and
        # read back, as 28.64788975654116 "degrees", and a bare 0.5 reads as 0.5 deg in radians
        q = study.q.copy()
        q[:, 2] = 0.5
        lines = format_measurements(replace(study, q=q)).splitlines()
        assert {line.split()[5] for line in lines[2:]} == {"28.64788975654116"}
        assert_array_equal(parse_measurements(lines).q[:, 2], 0.5)
        lines[2:] = [" ".join([*line.split()[:5], "0.5", *line.split()[6:]]) for line in lines[2:]]
        assert_array_equal(parse_measurements(lines).q[:, 2], np.deg2rad(0.5))

    def test_header_names_columns(self, study):
        header = format_measurements(study).splitlines()[1]
        assert header.split() == [
            "config", "marker", "rep", "q1", "q2", "q3", "q4", "q5", "q6",
            "fx", "fy", "fz", "fmarker", "p0x", "p0y", "p0z", "px", "py", "pz",
        ]

    def test_text_matches_per_row_formatting(self, study):
        # reference: one row at a time, every float through repr(float(.))
        order = sorted(range(len(study)),
                       key=lambda i: (study.config[i], study.marker[i], study.rep[i]))
        rows = []
        for i in order:
            cells = [str(study.config[i]), str(study.marker[i]), str(study.rep[i])]
            cells += [repr(float(v)) for v in np.rad2deg(study.q[i])]
            cells += [repr(float(v)) for v in study.force[i]]
            cells.append(str(study.fmarker[i]))
            cells += [repr(float(v)) for v in study.p0[i] / UM]
            cells += [repr(float(v)) for v in study.p[i] / UM]
            rows.append(" ".join(cells))
        shuffled = study.take(np.random.default_rng(1).permutation(len(study)))
        assert format_measurements(shuffled).splitlines()[2:] == rows

    def test_rows_sorted_regardless_of_input_order(self, study):
        reordered = study.take(slice(None, None, -1))
        assert format_measurements(reordered) == format_measurements(study)

    def test_rows_are_read_into_key_order(self, study, assert_same_study):
        lines = format_measurements(study).splitlines()
        rows = [lines[i] for i in 2 + np.random.default_rng(2).permutation(len(lines) - 2)]
        assert rows != lines[2:]
        assert_same_study(parse_measurements(lines[:2] + rows), parse_measurements(lines))

    def test_malformed_row_names_line(self, study):
        lines = format_measurements(study).splitlines()
        lines[5] = lines[5] + " surplus"
        with pytest.raises(MeasurementFormatError, match="columns") as exc:
            parse_measurements(lines, source="bad.tsv")
        assert "bad.tsv:6" in str(exc.value)

    def test_non_numeric_value_names_line(self, study):
        lines = format_measurements(study).splitlines()
        lines[3] = lines[3].replace(lines[3].split()[4], "oops", 1)
        with pytest.raises(MeasurementFormatError, match="non-numeric"):
            parse_measurements(lines)

    @pytest.mark.parametrize("row, column", [(3, 3), (-1, 18)])  # q1 mid-file, pz on the last line
    def test_non_numeric_first_or_last_float_names_line(self, study, row, column):
        lines = format_measurements(study).splitlines()
        tokens = lines[row].split()
        tokens[column] = "oops"
        lines[row] = " ".join(tokens)
        with pytest.raises(MeasurementFormatError, match="non-numeric") as exc:
            parse_measurements(lines, source="bad.tsv")
        assert f"bad.tsv:{row % len(lines) + 1}:" in str(exc.value)

    def test_non_integer_fmarker_names_line(self, study):
        lines = format_measurements(study).splitlines()
        tokens = lines[4].split()
        tokens[12] = "0.5"  # fmarker column
        lines[4] = " ".join(tokens)
        with pytest.raises(MeasurementFormatError, match="non-integer index") as exc:
            parse_measurements(lines, source="bad.tsv")
        assert "bad.tsv:5" in str(exc.value)

    def test_index_beyond_int64_names_line(self, study):
        for column in (0, 2):  # config, rep
            lines = format_measurements(study).splitlines()
            tokens = lines[6].split()
            tokens[column] = "99999999999999999999"
            lines[6] = " ".join(tokens)
            with pytest.raises(MeasurementFormatError, match="non-integer index") as exc:
                parse_measurements(lines, source="bad.tsv")
            assert "bad.tsv:7" in str(exc.value)

    @pytest.mark.parametrize("column, token", [(9, "1_000"), (9, "\u0661"), (2, "1_0")])
    def test_numbers_python_reads_rejected(self, study, column, token):
        # fx or rep of the first row: Python's int and float read "1_000" and the arabic-indic
        # digit one, numpy's C reader, the one number grammar of the file, does not
        lines = format_measurements(study).splitlines()
        tokens = lines[2].split()
        tokens[column] = token
        lines[2] = " ".join(tokens)
        with pytest.raises(MeasurementFormatError) as exc:
            parse_measurements(lines, source="bad.tsv")
        assert str(exc.value) == "bad.tsv:3: non-numeric value or non-integer index"

    @pytest.mark.parametrize(
        "edits, appended, message",
        [
            # column counts are checked over the whole file before any number
            ({3: (3, "oops"), 7: (19, "0")}, False, "f.tsv:7: expected 19 columns, got 20"),
            # number syntax over the whole file before finiteness
            ({3: (3, "inf"), 7: (3, "oops")}, False, "f.tsv:7: non-numeric value or non-integer index"),
            # finiteness over the whole file before distinct keys
            ({9: (14, "nan")}, True, "f.tsv:9: p0y nan is not finite"),
        ],
        ids=["count-after-number", "number-after-finite", "finite-after-key"],
    )
    def test_faults_named_in_documented_order(self, nominal_model, edits, appended, message):
        design = reference.study_design(seed=4, markers=2, repetitions=2)
        lines = format_measurements(simulate_measurements(design, nominal_model)).splitlines()
        assert len(lines) == 62
        for lineno, (column, token) in edits.items():
            tokens = lines[lineno - 1].split()
            tokens[column:column + 1] = [token]  # column 19 appends a surplus one
            lines[lineno - 1] = " ".join(tokens)
        if appended:
            lines.append(lines[3])  # a repeated key on the last line
        with pytest.raises(MeasurementFormatError) as exc:
            parse_measurements(lines, source="f.tsv")
        assert str(exc.value) == message

    def test_rows_refused_only_together_end_in_a_coded_error(self, study, monkeypatch):
        _refuse_several_rows(monkeypatch)
        with pytest.raises(MeasurementFormatError) as exc:
            parse_measurements(format_measurements(study).splitlines(), source="f.tsv")
        assert str(exc.value) == "f.tsv: non-numeric value or non-integer index"

    def test_duplicate_key_names_both_lines(self, study):
        lines = format_measurements(study).splitlines()
        lines.append(lines[3])  # config 1, marker 0, rep 2 a second time
        with pytest.raises(MeasurementFormatError, match="repeats line 4") as exc:
            parse_measurements(lines, source="bad.tsv")
        assert f"bad.tsv:{len(lines)}:" in str(exc.value)
        assert "config 1, marker 0, rep 2" in str(exc.value)

    @staticmethod
    def _shift_q1(line, delta_deg):
        tokens = line.split()
        tokens[3] = repr(float(tokens[3]) + delta_deg)
        return " ".join(tokens)

    def test_configuration_with_two_postures_names_both_lines(self, study):
        lines = format_measurements(study).splitlines()
        lines[3] = self._shift_q1(lines[3], 1e-3)  # 1.7e-5 rad, above BUCKET_TOL
        with pytest.raises(MeasurementFormatError, match="differ from line 3") as exc:
            parse_measurements(lines, source="bad.tsv")
        assert "bad.tsv:4:" in str(exc.value)
        assert "config 1" in str(exc.value)

    def test_posture_within_bucket_tolerance_accepted(self, study):
        lines = format_measurements(study).splitlines()
        lines[3] = self._shift_q1(lines[3], 1e-5)  # 1.7e-7 rad, below BUCKET_TOL
        assert len(parse_measurements(lines)) == len(study)

    def test_rows_of_a_configuration_read_its_first_posture(self, study):
        # a shift below BUCKET_TOL, or the sign of a zero, makes no second posture: each row reads the first's angles
        lines = format_measurements(study).splitlines()
        rows = [i for i, line in enumerate(lines) if line.split()[0] == "1"]
        set_q1 = lambda line, value: " ".join(line.split()[:3] + [value] + line.split()[4:])
        lines = [set_q1(line, "0.0") if i in rows else line for i, line in enumerate(lines)]
        source = parse_measurements(lines)
        lines[rows[1]] = set_q1(lines[rows[1]], "-0.0")
        lines[rows[2]] = self._shift_q1(lines[rows[2]], 1e-5)  # 1.7e-7 rad
        assert parse_measurements(lines).q.tobytes() == source.q.tobytes()

    def test_empty_study_is_not_written(self, study, tmp_path):
        with pytest.raises(ValueError, match="^no records to write$"):
            write_measurements(tmp_path / "m.tsv", study.take(slice(0, 0)))
        assert list(tmp_path.iterdir()) == []

    def test_missing_header_rejected(self, study):
        lines = format_measurements(study).splitlines()
        with pytest.raises(MeasurementFormatError, match="header"):
            parse_measurements(lines[2:3])

    def test_empty_file_rejected(self):
        with pytest.raises(MeasurementFormatError, match="no header"):
            parse_measurements(["# nothing here"])

    def test_header_only_rejected(self, study):
        header = format_measurements(study).splitlines()[1]
        for lines in ([header], [header, "# no rows yet", ""]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(MeasurementFormatError, match="no measurement rows"):
                    parse_measurements(lines)
            assert not caught  # numpy's "input contained no data" does not escape

    def test_comments_and_blank_lines_before_header_ignored(self, study, assert_same_study):
        lines = format_measurements(study).splitlines()
        assert_same_study(parse_measurements(["", "  # note", "\t", *lines]), parse_measurements(lines))

    def test_crlf_endings_and_trailing_comment_ignored(self, study, tmp_path, assert_same_study):
        lines = format_measurements(study).splitlines()
        expected = parse_measurements(lines)
        lines[3] += "  # re-measured"
        text = "\r\n".join(lines) + "\r\n"
        path = tmp_path / "m.tsv"
        path.write_bytes(text.encode())
        assert_same_study(load_measurements(path), expected)
        assert_same_study(parse_measurements(text.split("\n")), expected)  # each line keeps its "\r"

    def test_single_row(self, study, assert_same_study):
        lines = format_measurements(study).splitlines()
        assert_same_study(parse_measurements(lines[:3]), parse_measurements(lines).take([0]))


class TestNoiseTableFormat:
    def test_round_trip_with_uncertainty(self, tmp_path):
        noise = reference.noise_model()
        text = format_noise_table(noise)
        again = parse_noise_table(text.splitlines())
        assert_array_equal(again.config, noise.config)
        assert_allclose(again.sigma, noise.sigma, rtol=1e-12)
        assert_allclose(again.se, noise.se, rtol=1e-12)

    def test_four_column_form_accepted(self):
        model = parse_noise_table(["config sigma_x sigma_y sigma_z", "3 150 64 33"])
        assert_allclose(model.sigma[model.rows(3)], np.array([150.0, 64.0, 33.0]) * UM, rtol=1e-12)
        assert model.se is None
        assert format_noise_table(model).splitlines()[2] == "3 150.0 64.0 33.0 0.0 0.0 0.0"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1 2 3", "expected 4 or 7 columns"),
            ("1 a b c", "non-numeric"),
            ("1 -5 10 10", "sigma_x -5 must be finite and >= 0"),
            ("1 10 nan 10", "sigma_y nan must be finite and >= 0"),
            ("1 10 10 1e400", "sigma_z 1e400 must be finite and >= 0"),
            ("1 10 10 10 nan -3 inf", "se_x nan must be finite and >= 0"),
            ("1 10 10 10 1 -3 1", "se_y -3 must be finite and >= 0"),
            ("1 10 10 10 1 1 inf", "se_z inf must be finite and >= 0"),
            ("99999999999999999999 10 10 10", "configuration id beyond int64"),
            # a header only as the first data line, naming 4 or 7 columns
            ("config 2 10 10 10", "only the first line may be a header"),
            ("config sigma_x sigma_y sigma_z", "only the first line may be a header"),
            (("1 10 10 10", "config 2 10 10 10"), "only the first line may be a header"),
            (("# noise", "config sigma_x", "1 10 10 10"), "must read 'config sigma_x sigma_y sigma_z "
                                                          r"\[se_x se_y se_z\]'"),
            (("# noise", "config sigma_x sigma_y sigma_z se_x", "1 10 10 10"), "must read"),
            # the header and column rules run over every row before any number is read
            (("1 a 10 10", "2 10 10"), "expected 4 or 7 columns, got 3"),
            (("1 a 10 10", "2 10 10 10 1 1 1"), "expected 4 columns as on line 1, got 7"),
            (("1 a 10 10", "config sigma_x sigma_y sigma_z"), "only the first line may be a header"),
        ],
    )
    def test_malformed_rows_rejected(self, row, message):
        # a string is the row after a header naming 7 columns if it has 7, else 4; a tuple is the whole table
        header = " ".join(fileio._NOISE_HEADER[:7 if isinstance(row, str) and len(row.split()) == 7 else 4])
        lines = list(row) if isinstance(row, tuple) else [header, row]
        with pytest.raises(NoiseFormatError, match=message) as exc:
            parse_noise_table(lines, source="n.tsv")
        assert "n.tsv:2" in str(exc.value)

    @pytest.mark.parametrize("row", ["1_000 10 10 10", "\u0661 10 10 10", "1 1_000 10 10", "1 10 10 \u0661"])
    def test_numbers_python_reads_rejected(self, row):
        # an id or a sigma only Python's int and float read; numpy's C reader refuses it
        lines = ["config sigma_x sigma_y sigma_z", "2 10 10 10", row]
        with pytest.raises(NoiseFormatError) as exc:
            parse_noise_table(lines, source="n.tsv")
        assert str(exc.value) == "n.tsv:3: non-numeric value or configuration id beyond int64"

    @pytest.mark.parametrize("first, second", [("1 10 10 10 1 1 1", "2 10 10 10"),
                                               ("1 10 10 10", "2 10 10 10 1 1 1")])
    def test_mixed_column_counts_rejected(self, first, second):
        lines = ["# no header: the first row fixes the column count", first, "# comment", second]
        with pytest.raises(NoiseFormatError, match="as on line 2") as exc:
            parse_noise_table(lines, source="n.tsv")
        assert "n.tsv:4:" in str(exc.value)

    @pytest.mark.parametrize("header, row", [("config sigma_x sigma_y sigma_z", "1 10 10 10 1 1 1"),
                                             (" ".join(fileio._NOISE_HEADER), "1 10 10 10")])
    def test_header_fixes_the_column_count(self, header, row):
        with pytest.raises(NoiseFormatError) as exc:
            parse_noise_table([header, row], source="n.tsv")
        width = len(header.split())
        assert str(exc.value) == f"n.tsv:2: expected {width} columns as on line 1, got {len(row.split())}"

    def test_rows_refused_only_together_end_in_a_coded_error(self, monkeypatch):
        _refuse_several_rows(monkeypatch)
        with pytest.raises(NoiseFormatError) as exc:
            parse_noise_table(["1 10 10 10", "2 10 10 10"], source="n.tsv")
        assert str(exc.value) == "n.tsv: non-numeric value or configuration id beyond int64"

    def test_duplicate_configuration_rejected(self):
        with pytest.raises(NoiseFormatError, match="duplicate"):
            parse_noise_table(["1 10 10 10", "1 20 20 20"])

    def test_negative_sigma_rejected(self):
        with pytest.raises(NoiseFormatError, match=">= 0"):
            parse_noise_table(["1 -5 10 10"])

    def test_empty_table_rejected(self):
        with pytest.raises(NoiseFormatError, match="no entries"):
            parse_noise_table(["# empty", "config sigma_x sigma_y sigma_z"])

    def test_unreadable_path_reports_noise_error(self, tmp_path):
        with pytest.raises(NoiseFormatError, match="cannot read"):
            load_noise_table(tmp_path / "absent.tsv")

    @pytest.mark.parametrize("comments", [(), ("# noise", "")])
    def test_valid_table_read_in_one_call(self, monkeypatch, comments):
        read_rows, calls = fileio._read_rows, []
        monkeypatch.setattr(fileio, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
        noise = reference.noise_model()
        again = parse_noise_table([*comments, *format_noise_table(noise).splitlines()])
        assert len(calls) == 1
        assert_array_equal(again.config, noise.config)
        assert_array_equal(again.sigma, noise.sigma / UM * UM)


class TestGroundTruthFormat:
    def test_round_trip_exact(self):
        # a header, then one 'name repr(value)' row per parameter that float() reads back exactly
        names = ("k2_1", "k3")
        values = np.array([0.287e-6, 0.416e-6])
        lines = format_ground_truth(names, values).splitlines()
        assert lines[0].startswith("#") and lines[1] == "parameter value"
        rows = [line.split() for line in lines[2:]]
        assert [name for name, _ in rows] == list(names)
        assert [text for _, text in rows] == [repr(v) for v in values.tolist()]
        assert [float(text) for _, text in rows] == values.tolist()


@pytest.mark.parametrize("load, fmt, value", [
    (load_model, format_model, lambda request: request.getfixturevalue("nominal_model")),
    (load_measurements, format_measurements, lambda request: request.getfixturevalue("study")),
    (load_noise_table, format_noise_table, lambda request: request.getfixturevalue("bundled_design").noise),
], ids=["model", "measurements", "noise"])
def test_leading_byte_order_mark_is_read_past(load, fmt, value, request, tmp_path):
    # spreadsheet exports start a UTF-8 file with a byte-order mark; write_text writes none
    plain = write_text(tmp_path / "plain", fmt(value(request)))
    marked = tmp_path / "marked"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert not plain.read_bytes().startswith(codecs.BOM_UTF8)
    assert fmt(load(marked)) == fmt(load(plain))


class TestAtomicWrite:
    def test_no_temporary_residue(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_leftover_temporary_name_does_not_block(self, tmp_path):
        target = tmp_path / "parameters.txt"
        (tmp_path / "parameters.txt.tmp").mkdir()  # residue of an older writer
        write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parameters.txt", "parameters.txt.tmp"]

    def test_failed_write_removes_temporary(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            write_text(target, "payload\n")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_file_mode_follows_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            target = write_text(tmp_path / "out.txt", "payload\n")
        finally:
            os.umask(mask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_overwrites_in_place(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text(target, "first\n")
        write_text(target, "second\n")
        assert target.read_text() == "second\n"


CHUNK = fileio._CHUNK_ROWS


def _zeros_at_chunk_edges(column: np.ndarray) -> None:
    """Put -0.0 | 0.0 across every chunk boundary of ``column``, and 0.0 | -0.0 two rows on."""
    for edge in range(CHUNK, len(column) + 1, CHUNK):
        for row, value in ((edge - 1, -0.0), (edge, 0.0), (edge + 1, 0.0), (edge + 2, -0.0)):
            if row < len(column):
                column[row] = value


def _sorted_study(n: int) -> Study:
    """``n`` rows already in (config, marker, rep) order.  A posture spans a chunk
    boundary (2048 is no multiple of 6), the force repeats in every chunk and p0x
    holds signed zeros across the boundaries."""
    rng = np.random.default_rng(n)
    rows = np.arange(n)
    config = rows // 6
    p0 = rng.normal(size=(n, 3)) * 1e-3
    _zeros_at_chunk_edges(p0[:, 0])
    return Study(config=config, marker=rows // 2 % 3, rep=rows % 2, q=rng.uniform(-3, 3, size=(n // 6 + 1, 6))[config],
                 force=np.tile([0.0, 0.0, -2600.65], (n, 1)), fmarker=np.zeros(n, int), p0=p0,
                 p=p0 + rng.normal(size=(n, 3)) * 1e-4)


def _residual_inputs(n: int) -> tuple[StackedSystem, EstimationResult]:
    """A system of ``n`` rows, one class each, and a result whose weights repeat, whose sigmas
    repeat per configuration and whose predictions, so residuals, hold signed zeros across the
    chunk boundaries."""
    rng = np.random.default_rng(n)
    rows = np.arange(n)
    config, axis = rows // 6, rows % 3
    sys_ = StackedSystem(B=rng.normal(size=(n, 2)), dp=np.zeros(n), sigma=np.ones(n), config=config,
                         marker=rows // 3 % 2, axis=axis, columns=("k1", "k2"))
    predicted = rng.normal(size=n) * 1e-5
    _zeros_at_chunk_edges(predicted)  # p - 0.0 keeps the sign of a zero p, so the residuals hold them
    result = EstimationResult(parameters=("k1", "k2"), x_hat=np.zeros(2), covariance=np.eye(2), ci3=np.ones(2),
                              predicted=predicted, method="irls", weights=np.where(rows % 5, 1.0, 0.5),
                              sigma=1e-5 * (1.0 + config % 7 + axis / 3.0))
    return sys_, result


def _reference_table(comments, header, columns, sep):
    """The whole table at once: ``repr`` of every number, cells joined by ``sep``."""
    lines = [*(f"# {c}" for c in comments), sep.join(header)]
    cell = lambda v: v if isinstance(v, str) else repr(v)
    lines += [sep.join(map(cell, row)) for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def _transient_mb(write) -> float:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestStreamedTables:
    """Table files are formatted and written ``_CHUNK_ROWS`` rows at a time."""

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_measurements_match_whole_table_text(self, n, tmp_path):
        s = _sorted_study(n)
        expected = _reference_table(
            ["armcal measurements: angles deg, forces N, positions um"],
            ["config", "marker", "rep", *(f"q{j}" for j in range(1, 7)), "fx", "fy", "fz", "fmarker",
             "p0x", "p0y", "p0z", "px", "py", "pz"],
            [s.config, s.marker, s.rep, *np.rad2deg(s.q).T, *s.force.T, s.fmarker, *(s.p0 / UM).T, *(s.p / UM).T],
            " ")
        shuffled = s.take(np.random.default_rng(2).permutation(n))
        assert format_measurements(shuffled) == expected
        assert write_measurements(tmp_path / "m.tsv", shuffled).read_text() == expected
        assert (" -0.0 " in expected) == (n >= CHUNK)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_residual_report_matches_whole_table_text(self, n, tmp_path):
        sys_, result = _residual_inputs(n)
        expected = _reference_table(
            [], ["config", "marker", "axis", "sigma_um", "weight", "residual_um"],
            [sys_.config, sys_.marker, np.array(["x", "y", "z"])[sys_.axis], result.sigma[sys_.row_class] / UM,
             result.weights[sys_.row_class], residuals(sys_, result) / UM], "\t")
        assert reports.write_residual_report(tmp_path, sys_, result).read_text() == expected
        assert ("\t-0.0\n" in expected) == (n >= CHUNK)

    def test_writers_hold_one_chunk_not_the_table(self, tmp_path):
        # streamed, the transients read 3.3 and 0.6 MB, about one chunk's strings, at any row
        # count; formatting whole tables took 19 MB for these 12,000 measurement rows and
        # 20 MB for these 60,000 residual rows
        study = _sorted_study(12_000)
        sys_, result = _residual_inputs(60_000)
        assert _transient_mb(lambda: write_measurements(tmp_path / "m.tsv", study)) < 5.0
        # every row its own posture: a chunk formats its q, force and fmarker cells row by row
        distinct = replace(study, q=np.random.default_rng(3).uniform(-3, 3, size=study.q.shape))
        assert _transient_mb(lambda: write_measurements(tmp_path / "m.tsv", distinct)) < 5.0
        assert _transient_mb(lambda: reports.write_residual_report(tmp_path, sys_, result)) < 5.0

    @pytest.mark.parametrize("writer", ["measurements", "residuals"])
    @pytest.mark.parametrize("existing", [None, "old bytes\n"])
    def test_failure_after_first_chunk_leaves_target_as_it_was(self, writer, existing, tmp_path, monkeypatch):
        # the failure comes from the second chunk's first _reprs call, whichever that is
        module = fileio if writer == "measurements" else reports
        render, reprs, chunks = module._render, module._reprs, []

        def counting(header, n_rows, cells, *args, **kwargs):
            return render(header, n_rows, lambda rows: chunks.append(rows) or cells(rows), *args, **kwargs)

        def failing(*blocks):
            if len(chunks) == 2:
                raise RuntimeError("formatting failed")
            return reprs(*blocks)

        monkeypatch.setattr(module, "_render", counting)
        monkeypatch.setattr(module, "_reprs", failing)
        target = tmp_path / ("m.tsv" if writer == "measurements" else "residuals.tsv")
        if existing is not None:
            target.write_text(existing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            if writer == "measurements":
                write_measurements(target, _sorted_study(CHUNK + 1))
            else:
                reports.write_residual_report(tmp_path, *_residual_inputs(CHUNK + 1))
        assert chunks == [slice(0, CHUNK), slice(CHUNK, CHUNK + 1)]
        assert list(tmp_path.iterdir()) == ([target] if existing is not None else [])
        if existing is not None:
            assert target.read_text() == existing

    @pytest.mark.parametrize("columns", [[["1", "2"], ["3"]], [["1"], ["2", "3"]], [[], ["1"]]])
    def test_render_refuses_columns_of_unequal_length(self, columns):
        with pytest.raises(ValueError, match="row count"):
            "".join(fileio._render(["a", "b"], *fileio._whole(columns)))
        with pytest.raises(ValueError, match="row count"):
            "".join(fileio._render(["a", "b"], 2, lambda rows: [col[rows] for col in columns]))


def _measurement_reference(s: Study) -> str:
    """The measurement text of the sorted study ``s``, formatted one cell at a time."""
    return _reference_table(
        ["armcal measurements: angles deg, forces N, positions um"],
        ["config", "marker", "rep", *(f"q{j}" for j in range(1, 7)), "fx", "fy", "fz", "fmarker",
         "p0x", "p0y", "p0z", "px", "py", "pz"],
        [s.config, s.marker, s.rep, *np.rad2deg(s.q).T, *s.force.T, s.fmarker, *(s.p0 / UM).T, *(s.p / UM).T],
        " ")


def _residual_reference(sys_: StackedSystem, result: EstimationResult) -> str:
    """``residuals.tsv`` of ``sys_`` and ``result``, formatted one cell at a time."""
    config, marker, axis, sigma, weight = (a[sys_.row_class] for a in (sys_.config, sys_.marker, sys_.axis,
                                                                       result.sigma, result.weights))
    return _reference_table(
        [], ["config", "marker", "axis", "sigma_um", "weight", "residual_um"],
        [config, marker, np.array(["x", "y", "z"])[axis], sigma / UM, weight, residuals(sys_, result) / UM], "\t")


def _classed_inputs(n_records: int) -> tuple[StackedSystem, EstimationResult]:
    """A system of ``n_records`` records of configuration 0 and marker 0, three rows each,
    with one class per axis, and a result with one prediction, sigma and weight per class."""
    rows = np.arange(3 * n_records)
    axis = rows % 3
    rng = np.random.default_rng(n_records)
    sys_ = StackedSystem(B=rng.normal(size=(3, 2)), dp=rng.normal(size=len(rows)) * 1e-5, sigma=np.ones(3),
                         config=np.zeros(3, int), marker=np.zeros(3, int), axis=np.arange(3),
                         columns=("k1", "k2"), row_class=axis)
    result = EstimationResult(parameters=("k1", "k2"), x_hat=np.zeros(2), covariance=np.eye(2), ci3=np.ones(2),
                              predicted=rng.normal(size=3) * 1e-5, method="irls",
                              weights=np.array([1.0, 0.5, 0.25]), sigma=np.array([1e-5, 2e-5, 3e-5]))
    return sys_, result


class TestRepeatedCells:
    """A residual row's config..weight cells are formatted once per class of identical rows,
    and a measurement row's config, marker, q, force and fmarker cells once per run of its
    posture and its rep cell once per distinct rep, within each chunk.  Bits, not values,
    decide what is shared, so every file reads as if each cell were formatted alone."""

    def test_signed_zero_weights_of_two_classes_stay_apart(self, tmp_path):
        # two classes alike in every written cell but the sign of their zero weight, rows interleaved
        sys_ = StackedSystem(B=np.eye(2), dp=np.zeros(6), sigma=np.ones(2), config=np.zeros(2, int),
                             marker=np.zeros(2, int), axis=np.zeros(2, int), columns=("k1", "k2"),
                             row_class=[0, 1, 1, 0, 0, 1])
        result = EstimationResult(parameters=("k1", "k2"), x_hat=np.zeros(2), covariance=np.eye(2), ci3=np.ones(2),
                                  predicted=np.zeros(2), method="wls", weights=np.array([0.0, -0.0]),
                                  sigma=np.full(2, 1e-5))
        text = reports.write_residual_report(tmp_path, sys_, result).read_text()
        assert text == _residual_reference(sys_, result)
        assert [line.split("\t")[4] for line in text.splitlines()[1:]] == ["0.0", "-0.0", "-0.0", "0.0", "0.0", "-0.0"]

    @pytest.mark.parametrize("column", ["q", "force"])
    def test_signed_zero_postures_stay_apart(self, column, tmp_path):
        # four repetitions of one configuration and marker; the middle two differ from the
        # outer two by the sign of a zero alone
        s = _sorted_study(4)
        s = replace(s, config=np.zeros(4, int), marker=np.zeros(4, int), rep=np.arange(4),
                    q=np.tile(s.q[0], (4, 1)), force=np.tile(s.force[0], (4, 1)))
        values = getattr(s, column).copy()
        values[:, 0] = [0.0, -0.0, -0.0, 0.0]
        s = replace(s, **{column: values})
        first = 3 if column == "q" else 9  # the column's first cell
        text = format_measurements(s)
        assert text == _measurement_reference(s)
        assert [line.split()[first] for line in text.splitlines()[2:]] == ["0.0", "-0.0", "-0.0", "0.0"]
        assert write_measurements(tmp_path / "m.tsv", s).read_text() == text

    def test_posture_run_across_the_chunk_edge(self, tmp_path, monkeypatch):
        # one posture over the first chunk's last three rows and the next chunk's first
        # three, then another posture
        n, edge = CHUNK + 6, CHUNK - 3
        s = _sorted_study(n)
        config = (np.arange(n) >= edge + 6).astype(int)
        s = replace(s, config=config, marker=np.zeros(n, int), rep=np.arange(n), q=s.q[config * 6])
        reprs, sizes = fileio._reprs, []
        monkeypatch.setattr(fileio, "_reprs", lambda *blocks: sizes.append(len(blocks[0])) or reprs(*blocks))
        text = write_measurements(tmp_path / "m.tsv", s).read_text()
        assert text == _measurement_reference(s)
        # per chunk: the config and marker cells and the posture cells of each run, the cells
        # of the distinct reps, then the p0 and p cells
        assert sizes == [1, 1, CHUNK, CHUNK, 2, 2, n - CHUNK, n - CHUNK]

    def test_classes_across_the_chunk_edge(self, tmp_path):
        sys_, result = _classed_inputs(CHUNK // 3 + 2)
        text = reports.write_residual_report(tmp_path, sys_, result).read_text()
        assert text == _residual_reference(sys_, result)
