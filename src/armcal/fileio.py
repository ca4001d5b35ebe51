"""Plain-text file formats for models, measurements and noise tables.

All formats are UTF-8, whitespace-separated, with ``#`` comment lines.  The
public units are degrees for angles, micrometers for positions, newtons for
forces and meters for model lengths; everything becomes SI (radians, meters)
at this boundary.  A measurement file does not say which joints are
prismatic, so every ``q`` column is read in degrees and converted to
radians, a prismatic joint's travel included: a travel of 0.5 m is written
``28.64788975654116``, as :func:`write_measurements` writes it.  Floats are
written with ``repr`` so values survive a write/read cycle unchanged.

Model file grammar (one directive per line, ``key=value`` fields, vectors
comma-separated; a line gives only the fields shown here, each at most once, and
a model at most one ``base`` and one ``tool`` line)::

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

Both tables read their rows in one call of numpy's C text reader (``np.loadtxt``);
only where it refuses them does :func:`_read_numbers` read each row alone, to
name the first it refuses.  Spellings only Python's ``int`` and ``float`` accept
(``1_000``, non-ASCII digits) are refused; model files keep Python's ``float``.

Every table file is rendered by :func:`_render` and written ``_CHUNK_ROWS``
rows at a time: a chunk formats only its own rows of each column, so writing
holds one chunk's strings, and the bytes equal those of the whole table
formatted at once.  :func:`_reprs` (``repr``) is the one number formatter, and
a chunk formats cells that repeat once per class or run (:func:`_per_class`).
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import MeasurementFormatError, ModelFormatError, NoiseFormatError
from .estimator import _inside, _span
from .kinematics import Joint, ManipulatorModel, transform
from .noise import NoiseModel
from .regressor import BUCKET_TOL, Study, _class_starts

_UM = 1e-6
#: Rows per text chunk of a table file: each chunk is formatted, joined and written
#: before the next, so writing holds one chunk's strings, not the table's.
_CHUNK_ROWS = 2048


def write_text(path: str | Path, text: str | Iterable[str]) -> Path:
    """Atomic write of ``text``, one string or its chunks in turn, via a uniquely named
    temporary file next to ``path``, removed on failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _reprs(*blocks: np.ndarray) -> list[list[str]]:
    """``repr`` of every value as a Python number, one list per column of each 1-D or (N, k) block."""
    columns = (c for b in blocks for c in np.atleast_2d(np.asarray(b).T).tolist())
    return [list(map(repr, col)) for col in columns]


def _per_class(inverse: np.ndarray, columns: Sequence[Sequence[str]], sep: str) -> list[str]:
    """Per row, the ``sep``-joined cells of ``columns`` (one row per class) of its class ``inverse[row]``."""
    text = list(map(sep.join, zip(*columns)))
    return list(map(text.__getitem__, inverse.tolist()))


def _render(header: Sequence[str], n_rows: int, cells: Callable[[slice], Sequence[Sequence[str]]],
            sep: str = " ", comments: Sequence[str] = ()) -> Iterator[str]:
    """A text table as chunks of text: a ``# `` line per comment and the header, then the
    ``n_rows`` rows ``_CHUNK_ROWS`` at a time.  ``cells(rows)`` formats only the slice
    ``rows`` of each column; cells are joined by ``sep`` and every line ends in a newline."""
    yield "".join(f"{line}\n" for line in [*(f"# {c}" for c in comments), sep.join(header)])
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n_rows))
        columns = cells(rows)
        if any(len(col) != rows.stop - start for col in columns):
            raise ValueError("table columns disagree on the row count")
        yield "\n".join(map(sep.join, zip(*columns))) + "\n"


def _whole(columns: Sequence[Sequence[str]]) -> tuple[int, Callable[[slice], list[Sequence[str]]]]:
    """The row count and cells of :func:`_render` for columns formatted in advance."""
    return max(map(len, columns), default=0), lambda rows: [col[rows] for col in columns]


def _data_lines(lines: Iterable[str]):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


#: The fields each kind of model line takes, each at most once, and their defaults; a marker needs its xyz.
_MODEL_FIELDS = {"base": {"xyz": "0,0,0", "rpy": "0,0,0"}, "tool": {"xyz": "0,0,0", "rpy": "0,0,0"},
                 "joint": {"type": "revolute", "a": "0", "alpha": "0", "d": "0", "theta_offset": "0"},
                 "marker": {"xyz": None}}


def _fields(kind: str, tokens: Sequence[str], where: str) -> dict:
    """The ``key=value`` fields of a ``kind`` model line over their defaults."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ModelFormatError(f"{where}: expected key=value field, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in out:
            raise ModelFormatError(f"{where}: repeated {kind} field {key!r}")
        out[key] = value
    if kind == "marker" and "xyz" not in out:
        raise ModelFormatError(f"{where}: marker needs an xyz field")
    unknown = [key for key in out if key not in _MODEL_FIELDS[kind]]
    if unknown:
        raise ModelFormatError(f"{where}: unknown {kind} field {unknown[0]!r}")
    return {**_MODEL_FIELDS[kind], **out}


def _vector(text: str, where: str, length: bool = False) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ModelFormatError(f"{where}: expected 3 comma-separated values, got {text!r}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        raise ModelFormatError(f"{where}: non-numeric vector component in {text!r}") from None
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{where}: non-finite vector component in {text!r}")
    if length and not _inside("length", values).all():
        raise ModelFormatError(f"{where}: each component of {text!r} must be {_span('length', 'm')}")
    return values


def parse_model(lines: Iterable[str], source: str = "<model>") -> ManipulatorModel:
    poses: dict[str, np.ndarray] = {}
    joints: list[Joint] = []
    markers: list[np.ndarray] = []
    for lineno, line in _data_lines(lines):
        where = f"{source}:{lineno}"
        kind, *rest = line.split()
        if kind == "convention":
            if rest != ["modified-dh"]:
                raise ModelFormatError(f"{where}: unsupported convention {' '.join(rest)!r}")
        elif kind not in _MODEL_FIELDS:
            raise ModelFormatError(f"{where}: unknown directive {kind!r}")
        elif kind in poses:
            raise ModelFormatError(f"{where}: repeated {kind} line")
        elif kind == "marker":
            markers.append(_vector(_fields(kind, rest, where)["xyz"], where, length=True))
        elif kind == "joint":
            f = _fields(kind, rest, where)
            try:
                joint = Joint(kind=f["type"], a=float(f["a"]), alpha=float(np.deg2rad(float(f["alpha"]))),
                              d=float(f["d"]), theta=float(np.deg2rad(float(f["theta_offset"]))))
            except ValueError as exc:
                raise ModelFormatError(f"{where}: bad joint record ({exc})") from None
            if not _inside("length", [joint.a, joint.d]).all():
                raise ModelFormatError(f"{where}: joint a={f['a']}, d={f['d']} must each be {_span('length', 'm')}")
            joints.append(joint)
        else:
            f = _fields(kind, rest, where)
            poses[kind] = transform(_vector(f["xyz"], where, length=True), np.deg2rad(_vector(f["rpy"], where)))
    if not joints:
        raise ModelFormatError(f"{source}: model declares no joints")
    if not markers:
        raise ModelFormatError(f"{source}: model declares no markers")
    try:
        return ManipulatorModel(joints=tuple(joints), base=poses.get("base", np.eye(4)),
                                tool=poses.get("tool", np.eye(4)), markers=tuple(markers))
    except ValueError as exc:
        raise ModelFormatError(f"{source}: {exc}") from None


def _read_lines(path: Path, error, what: str) -> list[str]:
    try:
        return path.read_text(encoding="utf-8-sig").splitlines()
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
    csv = lambda values: ",".join(_reprs(np.asarray(values, dtype=float))[0])

    def pose_fields(T: np.ndarray) -> str:
        return f"xyz={csv(T[:3, 3])} rpy={csv(np.rad2deg(_rpy_from_matrix(T[:3, :3])))}"

    lines = ["# armcal manipulator model", "convention modified-dh", f"base {pose_fields(model.base)}"]
    for j in model.joints:
        a, alpha, d, theta = _reprs(np.array([j.a, np.rad2deg(j.alpha), j.d, np.rad2deg(j.theta)]))[0]
        lines.append(f"joint type={j.kind} a={a} alpha={alpha} d={d} theta_offset={theta}")
    lines.append(f"tool {pose_fields(model.tool)}")
    for m in model.markers:
        lines.append(f"marker xyz={csv(m)}")
    return "\n".join(lines) + "\n"


def _measurement_header(n_joints: int) -> list[str]:
    qcols = [f"q{i}" for i in range(1, n_joints + 1)]
    return ["config", "marker", "rep", *qcols, "fx", "fy", "fz", "fmarker",
            "p0x", "p0y", "p0z", "px", "py", "pz"]


def _measurement_chunks(study: Study) -> Iterator[str]:
    """The text of :func:`format_measurements` in :func:`_render` chunks.  Each chunk is a
    view ``study.take(rows)`` of the study's rows, kept in (config, marker, rep) order, and
    formats config, marker, q, force and fmarker once per class run of
    :func:`~armcal.regressor._class_starts`, as stacking groups them, and each distinct rep once."""
    if not len(study):
        raise ValueError("no records to write")

    def cells(rows: slice) -> list[list[str]]:
        s = study.take(rows)
        start = _class_starts(s)
        run = start.cumsum() - 1
        origin = _per_class(run, _reprs(s.config[start], s.marker[start]), " ")
        load = _per_class(run, _reprs(np.rad2deg(s.q[start]), s.force[start], s.fmarker[start]), " ")
        reps, inverse = np.unique(s.rep, return_inverse=True)
        return [origin, _per_class(inverse, _reprs(reps), " "), load, *_reprs(s.p0 / _UM, s.p / _UM)]

    return _render(_measurement_header(study.q.shape[1]), len(study), cells,
                   comments=["armcal measurements: angles deg, forces N, positions um"])


def format_measurements(study: Study) -> str:
    return "".join(_measurement_chunks(study))


def write_measurements(path: str | Path, study: Study) -> Path:
    return write_text(path, _measurement_chunks(study))


def _first_of_key(keys: np.ndarray) -> np.ndarray:
    """For each row of ``keys``, the index of the first row with the same key."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _header_joints(tokens: list[str]) -> int:
    """The joint count a measurement header names, or 0 if ``tokens`` is no such header."""
    n_joints = sum(1 for t in tokens if t.startswith("q") and t[1:].isdigit())
    return n_joints if n_joints and tokens == _measurement_header(n_joints) else 0


def _read_rows(lines: Sequence[str], dtype) -> np.ndarray:
    """``lines`` as a 1-D array of ``dtype`` from numpy's C reader.  It raises ``ValueError``
    on text it refuses; a warning it gives (no rows, say) refuses the text as well."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)


def _read_numbers(rows: Sequence[tuple[int, str]], dtype, source: str, err, fault: str) -> np.ndarray:
    """The (line number, text) ``rows`` read by :func:`_read_rows` in one call.  Only where
    that call refuses them is each row read alone: the first it refuses raises ``err`` with
    ``fault`` naming its line, and if none is refused alone ``err`` names no line."""
    try:
        return _read_rows([line for _, line in rows], dtype)
    except (ValueError, Warning):
        for lineno, line in rows:
            try:
                _read_rows([line], dtype)
            except (ValueError, Warning):
                raise err(f"{source}:{lineno}: {fault}") from None
        raise err(f"{source}: {fault}") from None


def _checked_rows(table: np.ndarray, header: list[str], rows: Iterable[tuple[int, str]], source: str) -> Study:
    """The :class:`Study` of ``table``, the fields of the measurement ``header`` in file units
    read from ``rows``, the (line number, text) of each data line.

    The file-wide checks run in order: q, force, p0 and p values finite and in the ``_DOMAIN``,
    distinct (config, marker, rep) keys, one posture per configuration.  The first fault raises
    ``MeasurementFormatError`` naming its line; only then are ``rows`` listed.  Every row then
    reads the joint angles of its configuration's first row in the file, so rows that differ
    within ``BUCKET_TOL`` (or by the sign of a zero) are one posture.
    """
    err = MeasurementFormatError
    n = table["q"].shape[1]
    q, p0, p = np.deg2rad(table["q"]), table["p0"] * _UM, table["p"] * _UM
    inside = np.hstack([_inside("joint", q), _inside("force", table["force"]), _inside("position", p0),
                        _inside("position", p)])
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        column = j + 3 + (j >= n + 3)  # the value columns skip fmarker
        lineno, line = list(rows)[i]
        rule = _span(*(("joint", "deg", 180.0 / np.pi) if j < n else ("force", "N") if j < n + 3
                       else ("position", "um", 1.0 / _UM)))
        fault = f"must be {rule}" if np.isfinite(np.hstack([q, table["force"], p0, p])[i, j]) else "is not finite"
        raise err(f"{source}:{lineno}: {header[column]} {line.split()[column]} {fault}")
    first = _first_of_key(np.stack([table[name] for name in ("config", "marker", "rep")], axis=1))
    repeats = np.flatnonzero(first != np.arange(len(table)))
    if repeats.size:
        i, at = repeats[0], list(rows)
        raise err(f"{source}:{at[i][0]}: config {table['config'][i]}, marker {table['marker'][i]}, "
                  f"rep {table['rep'][i]} repeats line {at[first[i]][0]}")
    first = _first_of_key(table["config"][:, None])
    moved = np.flatnonzero(np.max(np.abs(q - q[first]), axis=1) > BUCKET_TOL)
    if moved.size:
        i, at = moved[0], list(rows)
        raise err(f"{source}:{at[i][0]}: config {table['config'][i]} joint angles differ from line {at[first[i]][0]}")
    q = q[first]  # one posture per configuration: its first row's, bit for bit
    for a in (q, p0, p):  # frozen, so the study shares them; it copies the field views, which hold the whole table
        a.setflags(write=False)
    return Study(config=table["config"], marker=table["marker"], rep=table["rep"], q=q, force=table["force"],
                 fmarker=table["fmarker"], p0=p0, p=p)


def parse_measurements(lines: Iterable[str], source: str = "<measurements>") -> Study:
    """Parse into a :class:`Study`, in its (config, marker, rep) row order whatever the file's.

    numpy's C reader converts every row after the header in one
    ``np.loadtxt`` call, and the file-wide checks of :func:`_checked_rows` run
    on its columns, naming the line of a fault.  Only where the reader refuses
    the text is each rule checked in turn over the whole file: the column
    count of every row, then the numbers of each row alone (through the same
    reader, :func:`_read_numbers`), then the file-wide checks.
    """
    err = MeasurementFormatError
    lines = list(lines)
    rows = _data_lines(lines)
    lineno, header = next(rows, (0, ""))
    header = header.split()
    n_joints = _header_joints(header)
    if not n_joints:
        raise err(f"{source}:{lineno}: unrecognized measurement header" if header
                  else f"{source}: file has no header line")
    dtype = [("config", np.int64), ("marker", np.int64), ("rep", np.int64), ("q", float, (n_joints,)),
             ("force", float, (3,)), ("fmarker", np.int64), ("p0", float, (3,)), ("p", float, (3,))]
    try:
        table = _read_rows(lines[lineno:], dtype)
    except (ValueError, Warning):
        rows = list(rows)
        if not rows:
            raise err(f"{source}: file has no measurement rows") from None
        for lineno, line in rows:
            if len(line.split()) != len(header):
                raise err(f"{source}:{lineno}: expected {len(header)} columns, got {len(line.split())}") from None
        table = _read_numbers(rows, dtype, source, err, "non-numeric value or non-integer index")
    return _checked_rows(table, header, rows, source)


def load_measurements(path: str | Path) -> Study:
    lines = _read_lines(Path(path), MeasurementFormatError, "measurement file")
    return parse_measurements(lines, source=str(path))


_NOISE_HEADER = ["config", "sigma_x", "sigma_y", "sigma_z", "se_x", "se_y", "se_z"]


def format_noise_table(noise: NoiseModel) -> str:
    se = noise.se if noise.se is not None else np.zeros_like(noise.sigma)
    cells = lambda rows: _reprs(noise.config[rows], noise.sigma[rows] / _UM, se[rows] / _UM)
    return "".join(_render(_NOISE_HEADER, len(noise.config), cells,
                           comments=["armcal noise table: per-configuration deflection dispersions, um"]))


def write_noise_table(path: str | Path, noise: NoiseModel) -> Path:
    return write_text(path, format_noise_table(noise))


def parse_noise_table(lines: Iterable[str], source: str = "<noise>") -> NoiseModel:
    """Parse into a :class:`NoiseModel`.

    One pass over the data lines applies, in file order, the header rule (only
    the first line may be a header, naming the 4 or 7 columns) and the column
    rule (4 or 7 columns, as the header names or else as the first row has).
    :func:`_read_numbers` then reads the rows in one call, and values (finite, >= 0, in
    the ``_DOMAIN``) and ids (distinct) are checked file-wide.  A fault names its line.
    """
    err = NoiseFormatError
    rows: list[tuple[int, str]] = []  # (line number, text) of each entry
    for index, (lineno, line) in enumerate(_data_lines(lines)):
        tokens = line.split()
        if not index:  # the header, or else the first row, fixes the column count
            first, width = lineno, len(tokens)
        if tokens[0] == "config":
            if index or tokens not in (_NOISE_HEADER[:4], _NOISE_HEADER):
                raise err(f"{source}:{lineno}: only the first line may be a header, and it must read "
                          f"'{' '.join(_NOISE_HEADER[:4])} [{' '.join(_NOISE_HEADER[4:])}]'")
            continue
        if len(tokens) not in (4, 7):
            raise err(f"{source}:{lineno}: expected 4 or 7 columns, got {len(tokens)}")
        if len(tokens) != width:
            raise err(f"{source}:{lineno}: expected {width} columns as on line {first}, got {len(tokens)}")
        rows.append((lineno, line))
    if not rows:
        raise err(f"{source}: table has no entries")
    table = _read_numbers(rows, [("config", np.int64), ("values", float, (width - 1,))], source, err,
                          "non-numeric value or configuration id beyond int64")

    config, values = table["config"], table["values"] * _UM
    bad = (values < 0.0) | ~_inside("sigma", values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise err(f"{source}:{rows[i][0]}: {_NOISE_HEADER[j + 1]} {rows[i][1].split()[j + 1]} "
                  f"must be finite and >= 0, {_span('sigma', 'um', 1.0 / _UM)}")
    repeats = np.flatnonzero(_first_of_key(config[:, None]) != np.arange(len(rows)))
    if repeats.size:
        i = repeats[0]
        raise err(f"{source}:{rows[i][0]}: duplicate entry for configuration {config[i]}")
    return NoiseModel(config=config, sigma=values[:, :3], se=values[:, 3:] if values.shape[1] == 6 else None)


def load_noise_table(path: str | Path) -> NoiseModel:
    return parse_noise_table(_read_lines(Path(path), NoiseFormatError, "noise table"), source=str(path))


def format_ground_truth(names: Sequence[str], values_si: np.ndarray) -> str:
    return "".join(_render(["parameter", "value"], *_whole([names, *_reprs(values_si)]),
                           comments=["armcal ground truth: parameter values in SI units"]))


def write_ground_truth(path: str | Path, names: Sequence[str], values_si: np.ndarray) -> Path:
    return write_text(path, format_ground_truth(names, values_si))

