"""Plain-text file formats for models, measurements and noise tables.

All formats are UTF-8, whitespace-separated, with ``#`` comment lines.  The
public units are degrees for angles, micrometers for positions, newtons for
forces and meters for model lengths; everything becomes SI (radians, meters)
at this boundary.  Floats are written with ``repr`` so values survive a
write/read cycle unchanged.

Model file grammar (one directive per line, ``key=value`` fields, vectors
comma-separated)::

    convention modified-dh
    base xyz=0,0,0 rpy=0,0,0
    joint type=revolute a=0.35 alpha=-90 d=0 theta_offset=0
    tool xyz=0,0,0.1 rpy=0,0,0
    marker xyz=0.2,0,0.05

Measurement files are a header line naming the columns followed by one row
per (configuration, marker, repetition)::

    config marker rep q1 .. qN fx fy fz fmarker p0x p0y p0z px py pz

Noise tables carry per-configuration dispersions in micrometers, with or
without the three standard-error columns in every row::

    config sigma_x sigma_y sigma_z [se_x se_y se_z]
"""

from __future__ import annotations

import os
import warnings
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import MeasurementFormatError, ModelFormatError, NoiseFormatError
from .kinematics import Joint, ManipulatorModel, transform
from .noise import NoiseModel
from .regressor import BUCKET_TOL, Study

_UM = 1e-6


def write_text(path: str | Path, text: str) -> Path:
    """Atomic write via a uniquely named temporary file next to ``path``, removed on failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _fmt(value: float) -> str:
    return repr(float(value))


def _repr_columns(*blocks: np.ndarray) -> list[Iterable[str]]:
    """``repr`` of every value, one iterable of strings per column of each 1-D or (N, k) block.

    ``repr`` of a float from ``tolist()`` equals :func:`_fmt`; of an int, ``str``.  Each
    distinct bit pattern of a column is formatted once (so ``-0.0`` stays apart from
    ``0.0``) and its text gathered back through the inverse index; a column of
    distinct values is formatted as it stands, with no gather.
    """
    columns = []
    for col in (c for b in blocks for c in np.atleast_2d(np.asarray(b).T)):
        bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
        if bits.size == col.size:
            columns.append(list(map(repr, col.tolist())))
            continue
        text = np.array(list(map(repr, bits.view(col.dtype).tolist())), dtype=object)
        columns.append(text[inverse].tolist())
    return columns


def _data_lines(lines: Iterable[str]):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fields(tokens: Sequence[str], lineno: int, source: str, error):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise error(f"{source}:{lineno}: expected key=value field, got {tok!r}")
        key, _, value = tok.partition("=")
        out[key] = value
    return out


def _vector(text: str, lineno: int, source: str, error, n: int = 3) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise error(f"{source}:{lineno}: expected {n} comma-separated values, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise error(f"{source}:{lineno}: non-numeric vector component in {text!r}") from None


def parse_model(lines: Iterable[str], source: str = "<model>") -> ManipulatorModel:
    base = np.eye(4)
    tool = np.eye(4)
    joints: list[Joint] = []
    markers: list[np.ndarray] = []
    err = ModelFormatError
    for lineno, line in _data_lines(lines):
        kind, *rest = line.split()
        if kind == "convention":
            if rest != ["modified-dh"]:
                raise err(f"{source}:{lineno}: unsupported convention {' '.join(rest)!r}")
        elif kind in ("base", "tool"):
            f = _fields(rest, lineno, source, err)
            xyz = _vector(f.get("xyz", "0,0,0"), lineno, source, err)
            rpy = np.deg2rad(_vector(f.get("rpy", "0,0,0"), lineno, source, err))
            T = transform(xyz, rpy)
            if kind == "base":
                base = T
            else:
                tool = T
        elif kind == "joint":
            f = _fields(rest, lineno, source, err)
            try:
                joints.append(
                    Joint(
                        kind=f.get("type", "revolute"),
                        a=float(f.get("a", "0")),
                        alpha=float(np.deg2rad(float(f.get("alpha", "0")))),
                        d=float(f.get("d", "0")),
                        theta=float(np.deg2rad(float(f.get("theta_offset", "0")))),
                    )
                )
            except ValueError as exc:
                raise err(f"{source}:{lineno}: bad joint record ({exc})") from None
        elif kind == "marker":
            f = _fields(rest, lineno, source, err)
            if "xyz" not in f:
                raise err(f"{source}:{lineno}: marker needs an xyz field")
            markers.append(_vector(f["xyz"], lineno, source, err))
        else:
            raise err(f"{source}:{lineno}: unknown directive {kind!r}")
    if not joints:
        raise err(f"{source}: model declares no joints")
    if not markers:
        raise err(f"{source}: model declares no markers")
    try:
        return ManipulatorModel(joints=tuple(joints), base=base, tool=tool, markers=tuple(markers))
    except ValueError as exc:
        raise err(f"{source}: {exc}") from None


def _read_lines(path: Path, error, what: str) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_model(path: str | Path) -> ManipulatorModel:
    return parse_model(_read_lines(Path(path), ModelFormatError, "model file"), source=str(path))


def _rpy_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """Roll, pitch and yaw (radians) of the rotation ``R``, the inverse of ``rpy_matrix``.

    The pitch comes from its sine and cosine, so it stays accurate next to
    +-90 deg, where an arcsin loses half the digits.  Only where the cosine
    is at rounding level (gimbal lock) are roll and yaw inseparable, and
    everything is folded into roll.
    """
    cos_pitch = float(np.hypot(R[0, 0], R[1, 0]))
    pitch = float(np.arctan2(-R[2, 0], cos_pitch))
    if cos_pitch > 4.0 * np.finfo(float).eps:
        return float(np.arctan2(R[2, 1], R[2, 2])), pitch, float(np.arctan2(R[1, 0], R[0, 0]))
    return float(np.arctan2(-R[1, 2], R[1, 1])), pitch, 0.0


def format_model(model: ManipulatorModel) -> str:
    def pose_fields(T: np.ndarray) -> str:
        xyz = ",".join(_fmt(v) for v in T[:3, 3])
        rpy = ",".join(_fmt(np.rad2deg(v)) for v in _rpy_from_matrix(T[:3, :3]))
        return f"xyz={xyz} rpy={rpy}"

    lines = ["# armcal manipulator model", "convention modified-dh", f"base {pose_fields(model.base)}"]
    for j in model.joints:
        lines.append(
            f"joint type={j.kind} a={_fmt(j.a)} alpha={_fmt(np.rad2deg(j.alpha))} "
            f"d={_fmt(j.d)} theta_offset={_fmt(np.rad2deg(j.theta))}"
        )
    lines.append(f"tool {pose_fields(model.tool)}")
    for m in model.markers:
        lines.append("marker xyz=" + ",".join(_fmt(v) for v in m))
    return "\n".join(lines) + "\n"


def _measurement_header(n_joints: int) -> list[str]:
    qcols = [f"q{i}" for i in range(1, n_joints + 1)]
    return ["config", "marker", "rep", *qcols, "fx", "fy", "fz", "fmarker",
            "p0x", "p0y", "p0z", "px", "py", "pz"]


def format_measurements(study: Study) -> str:
    if not len(study):
        raise ValueError("no records to write")
    s = study.take(np.lexsort((study.rep, study.marker, study.config)))
    columns = _repr_columns(s.config, s.marker, s.rep, np.rad2deg(s.q), s.force, s.fmarker,
                            s.p0 / _UM, s.p / _UM)
    lines = [
        "# armcal measurements: angles deg, forces N, positions um",
        " ".join(_measurement_header(s.q.shape[1])),
        *map(" ".join, zip(*columns)),
    ]
    return "\n".join(lines) + "\n"


def write_measurements(path: str | Path, study: Study) -> Path:
    return write_text(path, format_measurements(study))


def _first_of_key(keys: np.ndarray) -> np.ndarray:
    """For each row of ``keys``, the index of the first row with the same key."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _header_joints(tokens: list[str]) -> int:
    """The joint count a measurement header names, or 0 if ``tokens`` is no such header."""
    n_joints = sum(1 for t in tokens if t.startswith("q") and t[1:].isdigit())
    return n_joints if n_joints and tokens == _measurement_header(n_joints) else 0


def _checked_rows(index: np.ndarray, values: np.ndarray, n_joints: int) -> Study | tuple[str, int, int]:
    """The :class:`Study` of parsed rows, or the first file-wide check they fail.

    ``index`` holds the config, marker, rep and fmarker columns, ``values`` the
    float columns in file order and units.  A fault is ``("finite", row, value
    column)``, ``("key", row, first row of its key)`` or ``("posture", row,
    first row of its configuration)``, checked in that order.
    """
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        return "finite", i, j
    first = _first_of_key(index[:, :3])
    repeats = np.flatnonzero(first != np.arange(len(index)))
    if repeats.size:
        return "key", repeats[0], first[repeats[0]]
    q = np.deg2rad(values[:, :n_joints])
    first = _first_of_key(index[:, :1])
    moved = np.flatnonzero(np.max(np.abs(q - q[first]), axis=1) > BUCKET_TOL)
    if moved.size:
        return "posture", moved[0], first[moved[0]]
    return Study(config=index[:, 0], marker=index[:, 1], rep=index[:, 2], q=q,
                 force=values[:, n_joints:n_joints + 3], fmarker=index[:, 3],
                 p0=values[:, n_joints + 3:n_joints + 6] * _UM, p=values[:, n_joints + 6:] * _UM)


def parse_measurements(lines: Iterable[str], source: str = "<measurements>") -> Study:
    """Parse into a :class:`Study` in file order.

    numpy's C reader converts every row after the header in one
    ``np.loadtxt`` call, and the file-wide checks of :func:`_checked_rows` run
    on its columns.  Where the reader refuses the text or a check fails,
    :func:`_parse_by_line` reads the lines again: it names the first faulty
    line, or returns the study of numbers that Python's ``int`` and ``float``
    read and the C reader does not (``1_000``, non-ASCII digits).
    """
    lines = list(lines)
    lineno, header = next(_data_lines(lines), (0, ""))
    n_joints = _header_joints(header.split())
    if n_joints:
        dtype = [("config", np.int64), ("marker", np.int64), ("rep", np.int64), ("q", float, (n_joints,)),
                 ("force", float, (3,)), ("fmarker", np.int64), ("p0", float, (3,)), ("p", float, (3,))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning (no rows, say) refuses the text too
                table = np.loadtxt(lines[lineno:], dtype=dtype, comments="#", ndmin=1)
        except (ValueError, Warning):
            pass
        else:
            index = np.stack([table[name] for name in ("config", "marker", "rep", "fmarker")], axis=1)
            values = np.hstack([table[name] for name in ("q", "force", "p0", "p")])
            study = _checked_rows(index, values, n_joints)
            if isinstance(study, Study):
                return study
    return _parse_by_line(lines, source)


def _parse_by_line(lines: Sequence[str], source: str) -> Study:
    """:func:`parse_measurements` one tokenized line at a time.  Checks run
    file-wide in turn (column counts, numbers, then :func:`_checked_rows`);
    the first fault found names its line."""
    err = MeasurementFormatError
    header: list[str] | None = None
    n_joints = 0
    rows: list[list[str]] = []
    linenos: list[int] = []
    for lineno, line in _data_lines(lines):
        tokens = line.split()
        if header is None:
            n_joints = _header_joints(tokens)
            if not n_joints:
                raise err(f"{source}:{lineno}: unrecognized measurement header")
            header = tokens
            continue
        if len(tokens) != len(header):
            raise err(
                f"{source}:{lineno}: expected {len(header)} columns, got {len(tokens)}"
            )
        rows.append(tokens)
        linenos.append(lineno)
    if header is None:
        raise err(f"{source}: file has no header line")
    if not rows:
        raise err(f"{source}: file has no measurement rows")

    fm = header.index("fmarker")
    value_cols = [*range(3, fm), *range(fm + 1, len(header))]
    ints, floats = itemgetter(0, 1, 2, fm), itemgetter(*value_cols)
    try:
        index = np.array(list(map(ints, rows)), dtype=int)
        values = np.array(list(chain.from_iterable(map(floats, rows))), dtype=float).reshape(len(rows), -1)
    except (ValueError, OverflowError):
        for lineno, tokens in zip(linenos, rows):  # find the line numpy refused
            try:
                np.array(ints(tokens), dtype=int), np.array(floats(tokens), dtype=float)
            except (ValueError, OverflowError):
                raise err(f"{source}:{lineno}: non-numeric value or non-integer index") from None
        raise
    study = _checked_rows(index, values, n_joints)
    if isinstance(study, Study):
        return study
    check, i, k = study
    if check == "finite":
        raise err(f"{source}:{linenos[i]}: {header[value_cols[k]]} {rows[i][value_cols[k]]} is not finite")
    config, marker, rep = index[i, :3].tolist()
    if check == "key":
        raise err(f"{source}:{linenos[i]}: config {config}, marker {marker}, rep {rep} "
                  f"repeats line {linenos[k]}")
    raise err(f"{source}:{linenos[i]}: config {config} joint angles differ from line {linenos[k]}")


def load_measurements(path: str | Path) -> Study:
    lines = _read_lines(Path(path), MeasurementFormatError, "measurement file")
    return parse_measurements(lines, source=str(path))


_NOISE_HEADER = ["config", "sigma_x", "sigma_y", "sigma_z", "se_x", "se_y", "se_z"]


def format_noise_table(noise: NoiseModel) -> str:
    se = noise.se if noise.se is not None else np.zeros_like(noise.sigma)
    lines = [
        "# armcal noise table: per-configuration deflection dispersions, um",
        " ".join(_NOISE_HEADER),
        *map(" ".join, zip(*_repr_columns(noise.config, noise.sigma / _UM, se / _UM))),
    ]
    return "\n".join(lines) + "\n"


def write_noise_table(path: str | Path, noise: NoiseModel) -> Path:
    return write_text(path, format_noise_table(noise))


def parse_noise_table(lines: Iterable[str], source: str = "<noise>") -> NoiseModel:
    """Parse into a :class:`NoiseModel`.  Only the first line may be a header,
    naming the 4 or 7 columns.  Each row's column count (that of the first
    row) and numbers are checked in file order, then values (finite,
    non-negative) and ids (distinct) file-wide; a fault names its line."""
    err = NoiseFormatError
    rows: list[list[str]] = []
    linenos: list[int] = []
    config, values = [], []
    for index, (lineno, line) in enumerate(_data_lines(lines)):
        tokens = line.split()
        if tokens[0] == "config":
            if index or tokens not in (_NOISE_HEADER[:4], _NOISE_HEADER):
                raise err(f"{source}:{lineno}: only the first line may be a header, and it must read "
                          f"'{' '.join(_NOISE_HEADER[:4])} [{' '.join(_NOISE_HEADER[4:])}]'")
            continue
        if len(tokens) not in (4, 7):
            raise err(f"{source}:{lineno}: expected 4 or 7 columns, got {len(tokens)}")
        if rows and len(tokens) != len(rows[0]):
            raise err(f"{source}:{lineno}: expected {len(rows[0])} columns as on line {linenos[0]}, "
                      f"got {len(tokens)}")
        try:
            config.append(np.array(tokens[0], dtype=int))
            values.append(np.array(tokens[1:], dtype=float))
        except (ValueError, OverflowError):
            raise err(f"{source}:{lineno}: non-numeric value or configuration id beyond int64") from None
        rows.append(tokens)
        linenos.append(lineno)
    if not rows:
        raise err(f"{source}: table has no entries")

    config, values = np.array(config), np.array(values)
    bad = ~np.isfinite(values) | (values < 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise err(f"{source}:{linenos[i]}: {_NOISE_HEADER[j + 1]} {rows[i][j + 1]} must be finite and >= 0")
    repeats = np.flatnonzero(_first_of_key(config[:, None]) != np.arange(len(rows)))
    if repeats.size:
        i = repeats[0]
        raise err(f"{source}:{linenos[i]}: duplicate entry for configuration {config[i]}")
    values *= _UM
    return NoiseModel(config=config, sigma=values[:, :3], se=values[:, 3:] if values.shape[1] == 6 else None)


def load_noise_table(path: str | Path) -> NoiseModel:
    return parse_noise_table(_read_lines(Path(path), NoiseFormatError, "noise table"), source=str(path))


def format_ground_truth(names: Sequence[str], values_si: np.ndarray) -> str:
    lines = ["# armcal ground truth: parameter values in SI units", "parameter value"]
    for name, value in zip(names, values_si):
        lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def write_ground_truth(path: str | Path, names: Sequence[str], values_si: np.ndarray) -> Path:
    return write_text(path, format_ground_truth(names, values_si))

