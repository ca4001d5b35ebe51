"""Text formats: write/read round trips and rejection of malformed input."""

import os
import stat
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from armcal import reference
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
from armcal.kinematics import forward_kinematics
from armcal.simulator import simulate_measurements

UM = 1e-6


class TestModelFormat:
    def test_bundled_model_parses(self, nominal_model):
        assert nominal_model.n_joints == 6
        assert len(nominal_model.markers) == 3
        assert nominal_model.joints[0].kind == "revolute"

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
            ("base xyz", "expected key=value"),
        ],
    )
    def test_malformed_lines_carry_location(self, line, message):
        lines = ["convention modified-dh", line, "joint type=revolute", "marker xyz=0,0,0"]
        with pytest.raises(ModelFormatError, match=message) as exc:
            parse_model(lines, source="model.txt")
        assert "model.txt:2" in str(exc.value)

    def test_model_without_joints_rejected(self):
        with pytest.raises(ModelFormatError, match="no joints"):
            parse_model(["marker xyz=0,0,0"])

    def test_model_without_markers_rejected(self):
        with pytest.raises(ModelFormatError, match="no markers"):
            parse_model(["joint type=revolute"])

    def test_unreadable_path_reports_model_error(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "absent.model")


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

    @pytest.mark.parametrize("column, token, plain",
                             [(9, "1_000", "1000"), (9, "\u0661", "1"), (2, "1_0", "10")])
    def test_numbers_python_reads_accepted(self, study, assert_same_study, column, token, plain):
        # fx or rep of the first row: Python's int and float read "1_000" and the arabic-indic
        # digit one; numpy's C reader refuses them
        def with_token(text):
            lines = format_measurements(study).splitlines()
            tokens = lines[2].split()
            tokens[column] = text
            lines[2] = " ".join(tokens)
            return parse_measurements(lines)

        assert_same_study(with_token(token), with_token(plain))

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
        ],
    )
    def test_malformed_rows_rejected(self, row, message):
        # a string is the row after a header line; a tuple is the whole table
        lines = list(row) if isinstance(row, tuple) else ["config sigma_x sigma_y sigma_z", row]
        with pytest.raises(NoiseFormatError, match=message) as exc:
            parse_noise_table(lines, source="n.tsv")
        assert "n.tsv:2" in str(exc.value)

    @pytest.mark.parametrize("first, second", [("1 10 10 10 1 1 1", "2 10 10 10"),
                                               ("1 10 10 10", "2 10 10 10 1 1 1")])
    def test_mixed_column_counts_rejected(self, first, second):
        lines = ["config sigma_x sigma_y sigma_z", first, "# comment", second]
        with pytest.raises(NoiseFormatError, match="as on line 2") as exc:
            parse_noise_table(lines, source="n.tsv")
        assert "n.tsv:4:" in str(exc.value)

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
