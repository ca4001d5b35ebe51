"""Property tests: file round trips, fuzzed measurement and noise text, row-order independence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from armcal import reference
from armcal.errors import CalibrationError
from armcal.fileio import (
    _parse_by_line,
    _repr_columns,
    format_measurements,
    format_model,
    format_noise_table,
    parse_measurements,
    parse_model,
    parse_noise_table,
)
from armcal.kinematics import PRISMATIC, REVOLUTE, Joint, ManipulatorModel, transform
from armcal.noise import NoiseModel
from armcal.regressor import Study, stack_system
from armcal.simulator import simulate_measurements

# deterministic examples, no example database on disk
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def within_ulps(actual, expected, ulps):
    """Every entry of ``actual`` within ``ulps`` units in the last place of ``expected``."""
    gap = np.abs(np.asarray(actual) - expected)
    return bool(np.all(gap <= ulps * np.spacing(np.abs(expected))))


@st.composite
def studies(draw):
    """Small studies with distinct (config, marker, rep) keys and one posture per config."""
    n_joints = draw(st.integers(1, 7))
    keys = draw(st.lists(st.tuples(st.integers(-5, 500), st.integers(0, 4), st.integers(0, 50)),
                         min_size=1, max_size=12, unique=True))
    posture = {c: draw(st.lists(finite(-10.0, 10.0), min_size=n_joints, max_size=n_joints))
               for c in sorted({c for c, _, _ in keys})}
    n = len(keys)

    def block(lo, hi):
        return draw(st.lists(st.lists(finite(lo, hi), min_size=3, max_size=3), min_size=n, max_size=n))

    config, marker, rep = zip(*keys)
    return Study(config=config, marker=marker, rep=rep, q=[posture[c] for c in config],
                 force=block(-1e6, 1e6), fmarker=draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                 p0=block(-10.0, 10.0), p=block(-10.0, 10.0))


@PROPERTY
@given(studies())
def test_measurement_round_trip(study):
    again = parse_measurements(format_measurements(study).splitlines())
    expected = study.take(np.lexsort((study.rep, study.marker, study.config)))
    for name in ("config", "marker", "rep", "fmarker", "force"):
        assert_array_equal(getattr(again, name), getattr(expected, name))
    # degrees and micrometers in the file: one rounding each way, so within 2 ulps
    for name in ("q", "p0", "p"):
        assert within_ulps(getattr(again, name), getattr(expected, name), 2), name


@PROPERTY
@given(st.dictionaries(st.integers(-5, 500), st.lists(finite(0.0, 1.0), min_size=6, max_size=6),
                       min_size=1, max_size=10),
       st.booleans())
def test_noise_table_round_trip(table, with_uncertainty):
    columns = np.array(list(table.values()))
    noise = NoiseModel(config=list(table), sigma=columns[:, :3],
                       se=columns[:, 3:] if with_uncertainty else None)
    again = parse_noise_table(format_noise_table(noise).splitlines())
    assert again.config.tolist() == sorted(table)
    for c, values in table.items():
        assert within_ulps(again.sigma[again.rows(c)], values[:3], 2)
        assert within_ulps(again.se[again.rows(c)], values[3:] if with_uncertainty else np.zeros(3), 2)


@st.composite
def models(draw):
    """Models of 1-7 joints with arbitrary base and tool poses.  The pitch of a pose
    stays 1e-4 rad from +-90 deg, comes within 1e-8 to 1e-5 rad of it, or sits there
    exactly (the gimbal case)."""
    length, angle = finite(-2.0, 2.0), finite(-math.pi, math.pi)
    near_gimbal = st.builds(lambda sign, gap: sign * (math.pi / 2 - gap),
                            st.sampled_from([-1.0, 1.0]), finite(1e-8, 1e-5))
    pitch = st.one_of(st.sampled_from([-math.pi / 2, math.pi / 2]), near_gimbal, finite(-1.5707, 1.5707))

    def pose():
        xyz = draw(st.lists(length, min_size=3, max_size=3))
        return transform(xyz, (draw(angle), draw(pitch), draw(angle)))

    joints = draw(st.lists(st.builds(Joint, kind=st.sampled_from([REVOLUTE, PRISMATIC]), a=length,
                                     alpha=angle, d=length, theta=angle), min_size=1, max_size=7))
    markers = draw(st.lists(st.lists(length, min_size=3, max_size=3), min_size=1, max_size=4))
    return ManipulatorModel(joints=tuple(joints), base=pose(), tool=pose(),
                            markers=tuple(np.array(m) for m in markers))


@PROPERTY
@given(models())
def test_model_round_trip(model):
    again = parse_model(format_model(model).splitlines())
    assert len(again.joints) == len(model.joints)
    for a, b in zip(again.joints, model.joints):
        assert (a.kind, a.a, a.d) == (b.kind, b.a, b.d)
        # angles are written in degrees: one rounding each way, so within 2 ulps
        assert within_ulps([a.alpha, a.theta], [b.alpha, b.theta], 2)
    assert_array_equal(np.array(again.markers), np.array(model.markers))
    for pose, expected in ((again.base, model.base), (again.tool, model.tool)):
        assert_array_equal(pose[:3, 3], expected[:3, 3])
        assert_array_equal(pose[3], expected[3])
        # the rotation is written as roll/pitch/yaw recovered by arctan2 alone, next to
        # +-90 deg too: within 1e-12 per entry
        assert np.max(np.abs(pose[:3, :3] - expected[:3, :3])) <= 1e-12


#: Floats that format unusually: not-a-number, infinities and subnormals.
SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.5e-308]


@st.composite
def repeated_blocks(draw):
    """A 1-D or (N, k) int64 or float64 block drawn from a pool of a few values.  Float pools
    always hold both signed zeros, which a dedupe keyed on value (``-0.0 == 0.0``) would merge."""
    if draw(st.booleans()):
        pool, dtype = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=5)), np.int64
    else:
        pool = [0.0, -0.0, *draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), max_size=4))]
        dtype = np.float64
    n = draw(st.integers(0, 30))
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 4)))
    size = math.prod(shape)
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)), dtype=dtype).reshape(shape)


@PROPERTY
@example([np.array([0.0, -0.0, 0.0, math.nan, -math.inf, 5e-324]),
          np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, -1e-310]]), np.array([3, -3, 3])])
@given(st.lists(repeated_blocks(), min_size=1, max_size=3))
def test_repr_columns_match_per_value_repr(blocks):
    expected = [list(map(repr, col.tolist())) for b in blocks for col in np.atleast_2d(b.T)]
    assert [list(column) for column in _repr_columns(*blocks)] == expected


@pytest.fixture(scope="module")
def measurement_lines(nominal_model):
    design = reference.study_design(seed=4, markers=2, repetitions=2)
    return format_measurements(simulate_measurements(design, nominal_model)).splitlines()[:8]


TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "7", "1.5", "nan", "inf", "-inf", "1e400", "1_000", "0x10",
                     "99999999999999999999", "q7", "config", "#", "", "fmarker"]),
    st.text(alphabet="0123456789.e+-_xnaif# \t", max_size=8),
)


#: Tokens that must end in a coded error in any number column: an integer
#: beyond int64, not-a-number, a float overflow and a negative value.
HAZARDS = st.sampled_from(["99999999999999999999", "nan", "1e400", "-1"])


def aimed(rows, columns):
    """Edits each writing a hazard token into a chosen column of a chosen row.

    Drawn as a whole example, not mixed with free edits: a free edit that
    breaks a column count elsewhere would stop the parser before the hazard.
    """
    return st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, columns - 1), HAZARDS),
                    min_size=1, max_size=3)


def edited(lines, edits, duplicated):
    """``lines`` with token ``column`` of line ``row`` replaced per edit, then some lines repeated."""
    lines = list(lines)
    for row, column, token in edits:
        tokens = lines[row].split() or [""]
        tokens[column % len(tokens)] = token
        lines[row] = " ".join(tokens)
    return lines + [lines[row] for row in duplicated]


#: Edits of the 8 measurement lines (free ones or aimed hazards) and the lines then repeated.
MEASUREMENT_EDITS = (
    st.one_of(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20), TOKENS), max_size=4), aimed(8, 19)),
    st.lists(st.integers(0, 7), max_size=2),
)


@PROPERTY
@given(*MEASUREMENT_EDITS)
def test_fuzzed_measurement_text_fails_only_with_coded_errors(measurement_lines, edits, duplicated):
    try:
        parse_measurements(edited(measurement_lines, edits, duplicated))
    except CalibrationError:
        pass


def outcome(parse, lines):
    try:
        return parse(lines, source="fuzzed.tsv")
    except Exception as exc:  # compared by class and message
        return exc


@PROPERTY
@example([(2, 9, "1_000"), (5, 14, "\u0661")], [])  # numbers only Python's float reads
@example([(3, 2, "9" * 20)], [])  # a rep beyond int64
@example([], [4])  # a repeated key
@given(*MEASUREMENT_EDITS)
def test_fuzzed_measurement_text_reads_as_line_by_line(measurement_lines, assert_same_study, edits, duplicated):
    """numpy's C reader and the line tokenizer give the same study bit for bit, or the same error."""
    lines = edited(measurement_lines, edits, duplicated)
    fast, by_line = outcome(parse_measurements, lines), outcome(_parse_by_line, lines)
    if isinstance(by_line, Study):
        assert isinstance(fast, Study), fast
        assert_same_study(fast, by_line)
    else:
        assert (type(fast), str(fast)) == (type(by_line), str(by_line))


@pytest.fixture(scope="module")
def noise_lines():
    return format_noise_table(reference.noise_model()).splitlines()[:6]


@PROPERTY
@given(st.one_of(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7), TOKENS), max_size=4),
                 aimed(6, 7)),
       st.lists(st.integers(0, 5), max_size=2))
def test_fuzzed_noise_text_fails_only_with_coded_errors(noise_lines, edits, duplicated):
    try:
        parse_noise_table(edited(noise_lines, edits, duplicated))
    except CalibrationError:
        pass


@pytest.fixture(scope="module")
def small_study(nominal_model):
    return simulate_measurements(reference.study_design(seed=6, markers=2, repetitions=2), nominal_model)


@settings(PROPERTY, max_examples=6)
@given(st.randoms(use_true_random=False), st.sampled_from(["elastostatic", "combined"]))
def test_stack_system_ignores_row_order(small_study, nominal_model, bundled_design, random, mode):
    order = list(range(len(small_study)))
    random.shuffle(order)
    params = ["a2", "tool_x"] if mode == "combined" else None
    cmap, noise = bundled_design.cmap, bundled_design.noise
    expected = stack_system(small_study, nominal_model, cmap, noise, mode=mode, params=params)
    sys = stack_system(small_study.take(order), nominal_model, cmap, noise, mode=mode, params=params)
    for name in ("B", "dp", "sigma", "config", "marker", "axis"):
        assert_array_equal(getattr(sys, name), getattr(expected, name))
