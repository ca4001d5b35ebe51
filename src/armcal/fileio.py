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

Noise tables carry per-configuration dispersions in micrometers::

    config sigma_x sigma_y sigma_z [se_x se_y se_z]
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import MeasurementFormatError, ModelFormatError, NoiseFormatError
from .kinematics import Joint, ManipulatorModel, transform
from .noise import NoiseModel
from .regressor import BUCKET_TOL, ExperimentRecord, Wrench

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
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_model(path: str | Path) -> ManipulatorModel:
    return parse_model(_read_lines(Path(path), ModelFormatError, "model file"), source=str(path))


def _rpy_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    pitch = float(np.arcsin(np.clip(-R[2, 0], -1.0, 1.0)))
    if abs(R[2, 0]) < 1.0 - 1e-12:
        roll = float(np.arctan2(R[2, 1], R[2, 2]))
        yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    else:  # gimbal: fold everything into roll
        roll = float(np.arctan2(-R[1, 2], R[1, 1]))
        yaw = 0.0
    return roll, pitch, yaw


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


def format_measurements(records: Sequence[ExperimentRecord]) -> str:
    if not records:
        raise ValueError("no records to write")
    n_joints = records[0].q.shape[0]
    lines = [
        "# armcal measurements: angles deg, forces N, positions um",
        " ".join(_measurement_header(n_joints)),
    ]
    for r in sorted(records, key=lambda r: (r.config, r.marker, r.repetition)):
        row = [str(r.config), str(r.marker), str(r.repetition)]
        row += [_fmt(v) for v in np.rad2deg(r.q)]
        row += [_fmt(v) for v in r.load.force]
        row.append(str(r.load.application_marker))
        row += [_fmt(v) for v in r.p0 / _UM]
        row += [_fmt(v) for v in r.p / _UM]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def write_measurements(path: str | Path, records: Sequence[ExperimentRecord]) -> Path:
    return write_text(path, format_measurements(records))


def parse_measurements(lines: Iterable[str], source: str = "<measurements>") -> list[ExperimentRecord]:
    err = MeasurementFormatError
    header: list[str] | None = None
    n_joints = 0
    records: list[ExperimentRecord] = []
    keys: dict[tuple[int, int, int], int] = {}  # (config, marker, rep) -> line
    postures: dict[int, tuple[np.ndarray, int]] = {}  # config -> (q, line)
    for lineno, line in _data_lines(lines):
        tokens = line.split()
        if header is None:
            n_joints = sum(1 for t in tokens if t.startswith("q") and t[1:].isdigit())
            if n_joints < 1 or tokens != _measurement_header(n_joints):
                raise err(f"{source}:{lineno}: unrecognized measurement header")
            header = tokens
            continue
        if len(tokens) != len(header):
            raise err(
                f"{source}:{lineno}: expected {len(header)} columns, got {len(tokens)}"
            )
        try:
            config, marker, rep = int(tokens[0]), int(tokens[1]), int(tokens[2])
            fmarker = int(tokens[3 + n_joints + 3])
            vals = [float(t) for t in tokens[3:]]
        except ValueError:
            raise err(f"{source}:{lineno}: non-numeric value or non-integer index") from None
        q = np.deg2rad(vals[:n_joints])
        first = keys.setdefault((config, marker, rep), lineno)
        if first != lineno:
            raise err(f"{source}:{lineno}: config {config}, marker {marker}, rep {rep} repeats line {first}")
        q_first, q_line = postures.setdefault(config, (q, lineno))
        if np.max(np.abs(q - q_first)) > BUCKET_TOL:
            raise err(f"{source}:{lineno}: config {config} joint angles differ from line {q_line}")
        fx, fy, fz = vals[n_joints : n_joints + 3]
        rest = vals[n_joints + 4 :]
        p0 = np.array(rest[0:3]) * _UM
        p = np.array(rest[3:6]) * _UM
        try:
            records.append(
                ExperimentRecord(
                    config=config,
                    q=q,
                    load=Wrench(force=np.array([fx, fy, fz]), application_marker=fmarker),
                    marker=marker,
                    repetition=rep,
                    p0=p0,
                    p=p,
                )
            )
        except ValueError as exc:
            raise err(f"{source}:{lineno}: {exc}") from None
    if header is None:
        raise err(f"{source}: file has no header line")
    if not records:
        raise err(f"{source}: file has no measurement rows")
    return records


def load_measurements(path: str | Path) -> list[ExperimentRecord]:
    lines = _read_lines(Path(path), MeasurementFormatError, "measurement file")
    return parse_measurements(lines, source=str(path))


def format_noise_table(noise: NoiseModel) -> str:
    lines = [
        "# armcal noise table: per-configuration deflection dispersions, um",
        "config sigma_x sigma_y sigma_z se_x se_y se_z",
    ]
    for cfg in sorted(noise.entries):
        sig = noise.entries[cfg] / _UM
        se = (
            noise.uncertainty[cfg] / _UM
            if noise.uncertainty is not None and cfg in noise.uncertainty
            else np.zeros(3)
        )
        lines.append(
            f"{cfg} " + " ".join(_fmt(v) for v in sig) + " " + " ".join(_fmt(v) for v in se)
        )
    return "\n".join(lines) + "\n"


def write_noise_table(path: str | Path, noise: NoiseModel) -> Path:
    return write_text(path, format_noise_table(noise))


def parse_noise_table(lines: Iterable[str], source: str = "<noise>") -> NoiseModel:
    err = NoiseFormatError
    entries: dict[int, np.ndarray] = {}
    uncert: dict[int, np.ndarray] = {}
    for lineno, line in _data_lines(lines):
        tokens = line.split()
        if tokens and tokens[0] == "config":  # header line
            continue
        if len(tokens) not in (4, 7):
            raise err(f"{source}:{lineno}: expected 4 or 7 columns, got {len(tokens)}")
        try:
            cfg = int(tokens[0])
            vals = [float(t) for t in tokens[1:]]
        except ValueError:
            raise err(f"{source}:{lineno}: non-numeric value") from None
        if cfg in entries:
            raise err(f"{source}:{lineno}: duplicate entry for configuration {cfg}")
        entries[cfg] = np.array(vals[:3]) * _UM
        if len(vals) == 6:
            uncert[cfg] = np.array(vals[3:]) * _UM
    if not entries:
        raise err(f"{source}: table has no entries")
    try:
        return NoiseModel(entries=entries, uncertainty=uncert or None)
    except ValueError as exc:
        raise err(f"{source}: {exc}") from None


def load_noise_table(path: str | Path) -> NoiseModel:
    return parse_noise_table(_read_lines(Path(path), NoiseFormatError, "noise table"), source=str(path))


def format_ground_truth(names: Sequence[str], values_si: np.ndarray) -> str:
    lines = ["# armcal ground truth: parameter values in SI units", "parameter value"]
    for name, value in zip(names, values_si):
        lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def write_ground_truth(path: str | Path, names: Sequence[str], values_si: np.ndarray) -> Path:
    return write_text(path, format_ground_truth(names, values_si))


def load_ground_truth(path: str | Path) -> dict[str, float]:
    err = MeasurementFormatError
    out: dict[str, float] = {}
    for lineno, line in _data_lines(_read_lines(Path(path), err, "ground-truth file")):
        tokens = line.split()
        if tokens[0] == "parameter":
            continue
        where = f"{path}:{lineno}"
        if len(tokens) != 2:
            raise err(f"{where}: expected 'name value' rows")
        name, text = tokens
        try:
            value = float(text)
        except ValueError:
            raise err(f"{where}: non-numeric value {text!r}") from None
        if not math.isfinite(value):
            raise err(f"{where}: value {text!r} is not finite")
        if name in out:
            raise err(f"{where}: repeated parameter {name!r}")
        out[name] = value
    return out
