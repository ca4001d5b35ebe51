"""Observation equations for geometric and elastostatic identification.

Under an external wrench ``w`` applied at a tool marker, virtual joint
springs deflect by ``dq_j = k_j * (J^T w)_j`` and the observed marker moves by

    dp = sum_j Jp[:, j] * k_j * (J[:, j] . w)

so the regressor column for compliance ``k_j`` is ``Jp_j (J_j . w)``.  The
second joint's compliance is allowed to depend on its own angle (gravity
loading of the link changes the effective stiffness), which is modelled by
bucketing: each declared reference angle owns a separate parameter.

``stack_system`` assembles the 3-row blocks of a :class:`Study`'s rows into
one tall linear system ``B x = dp``, in the (configuration, marker,
repetition) order the study keeps, then by axis, whatever the input order.  The
repetitions of a posture are identical rows, so the system stores each class
of identical rows once: its regressor row, sigma and origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Literal, Sequence

import numpy as np

from .errors import BucketMatchError
from .kinematics import ManipulatorModel, _frozen, _joint_jacobians, _kinematics, _parameter_jacobians
from .kinematics import joint_jacobian  # noqa: F401  bench/tests reach armcal.regressor.joint_jacobian
from .noise import AXES, DEFAULT_SIGMA0, NoiseModel, _Groups, build_sigma

#: Angle tolerance (radians) when matching a configuration to a bucket level.
BUCKET_TOL = 1e-6


def _class_starts(study: Study) -> np.ndarray:
    """True at each row of ``study`` that starts a class run: consecutive rows of its (config, marker, rep)
    order whose configuration, marker, joint vector, force and force marker agree bit for bit (``-0.0 != 0.0``)."""
    columns = (study.config, study.marker, study.q, study.force, study.fmarker)
    bits = np.column_stack([c.view(f"u{c.itemsize}") for c in columns])
    return np.r_[True, np.any(bits[1:] != bits[:-1], axis=1)]


@dataclass(frozen=True)
class Study:
    """A deflection experiment as one read-only table of columns.

    Row i is one loaded/unloaded position pair of configuration
    ``config[i]``, tool marker ``marker[i]`` and repetition ``rep[i]``:
    joint angles ``q`` (N, joints, radians), the force ``force`` (N, 3,
    newtons) applied at marker ``fmarker[i]``, the unloaded marker position
    ``p0`` and the loaded one ``p`` (N, 3, meters in the measurement frame).
    Columns pass through :func:`~armcal.kinematics._frozen`, must agree on the row count and be finite.
    Rows are kept in (config, marker, rep) order: rows already in it are shared, others gathered once.
    """

    config: np.ndarray
    marker: np.ndarray
    rep: np.ndarray
    q: np.ndarray
    force: np.ndarray
    fmarker: np.ndarray
    p0: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        n = len(self.config)
        for f in fields(self):
            index = f.name in ("config", "marker", "rep", "fmarker")
            arr = _frozen(getattr(self, f.name), int if index else float)
            shape = (n,) if index else (n, 3)  # q: (n, joints)
            if arr.shape[:1] != (n,) or arr.ndim != len(shape) or (f.name != "q" and arr.shape != shape):
                raise ValueError(f"study column {f.name} has shape {arr.shape} for {n} rows")
            if not (index or np.all(np.isfinite(arr))):
                raise ValueError(f"study column {f.name} contains non-finite values")
            object.__setattr__(self, f.name, arr)
        unordered = np.zeros(max(n - 1, 0), bool)  # rows i, i + 1 out of order on the keys seen so far
        for key in (self.rep, self.marker, self.config):  # from the last key of the order to the first
            unordered &= key[1:] == key[:-1]
            unordered |= key[1:] < key[:-1]
        if unordered.any():
            vars(self).update(vars(self.take(np.lexsort((self.rep, self.marker, self.config)))))

    def __len__(self) -> int:
        return len(self.config)

    @property
    def deflection(self) -> np.ndarray:
        return self.p - self.p0

    def take(self, rows) -> "Study":
        """The rows ``rows`` (an index array, mask or slice) as a new, fully checked study in key order; each
        column is gathered once and frozen, so the new study shares it (rows out of key order are gathered again)."""
        columns = {f.name: getattr(self, f.name)[rows] for f in fields(self)}
        for column in columns.values():
            column.setflags(write=False)
        return Study(**columns)


@dataclass(frozen=True)
class ComplianceParameterMap:
    """Layout of the compliance parameter vector.

    ``bucket_levels`` are reference angles (radians, strictly increasing) of
    the bucketed joint, joint 2 (index ``bucket_joint``, the same for every
    map); each level owns one parameter.  ``tail_joints`` are
    0-based indices of joints that own one parameter each regardless of
    posture.  Joints in neither set are treated as rigid.  Parameter order is
    bucket levels first, then tail joints.
    """

    bucket_levels: tuple[float, ...] = ()
    tail_joints: tuple[int, ...] = ()
    bucket_joint: ClassVar[int] = 1

    def __post_init__(self):
        levels = tuple(float(v) for v in self.bucket_levels)
        if any(b - a <= BUCKET_TOL for a, b in zip(levels, levels[1:])):
            raise ValueError("bucket levels must be strictly increasing and separated")
        tails = tuple(int(j) for j in self.tail_joints)
        if len(set(tails)) != len(tails):
            raise ValueError("tail joints must be distinct")
        if levels and self.bucket_joint in tails:
            raise ValueError("bucketed joint cannot also be a tail joint")
        if not levels and not tails:
            raise ValueError("compliance map is empty")
        object.__setattr__(self, "bucket_levels", levels)
        object.__setattr__(self, "tail_joints", tails)

    @property
    def n_parameters(self) -> int:
        return len(self.bucket_levels) + len(self.tail_joints)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        names = [f"k{self.bucket_joint + 1}_{i + 1}" for i in range(len(self.bucket_levels))]
        names += [f"k{j + 1}" for j in self.tail_joints]
        return tuple(names)

    def bucket_index(self, angle):
        """Index of the first level within ``BUCKET_TOL`` of ``angle``, elementwise over an array."""
        angle = np.asarray(angle, dtype=float)
        match = np.abs(angle[..., None] - np.array(self.bucket_levels)) <= BUCKET_TOL
        missed = ~np.any(match, axis=-1)
        if np.any(missed):
            raise BucketMatchError(
                f"joint angle {angle[missed][0]:.8f} rad matches no declared bucket level "
                f"(levels: {', '.join(f'{v:.6f}' for v in self.bucket_levels)})"
            )
        index = np.argmax(match, axis=-1)
        return int(index) if index.ndim == 0 else index

    def column_of(self, joint: int, q_joint):
        """Parameter column owned by ``joint`` at angle(s) ``q_joint``, or None."""
        if self.bucket_levels and joint == self.bucket_joint:
            return self.bucket_index(q_joint)
        if joint in self.tail_joints:
            return len(self.bucket_levels) + self.tail_joints.index(joint)
        return None

    @classmethod
    def from_configurations(cls, configurations: Sequence[np.ndarray] | np.ndarray) -> "ComplianceParameterMap":
        """The 6R layout: joint 2 (index 1) bucketed at the distinct angles it takes in the rows
        of ``configurations``, and one parameter each for those of tail joints 3..6 (indices 2..5)
        that the configurations have, so a 3-joint model gets ``k3`` alone and a 2-joint model
        none.  Configurations need at least two joints."""
        q = np.asarray(configurations, dtype=float)
        if q.ndim != 2 or q.shape[1] < 2:
            raise ValueError(f"configurations need at least two joints, got shape {q.shape}")
        distinct, first = np.unique(q[:, cls.bucket_joint], return_index=True)
        levels: list[float] = []
        for angle in distinct[np.argsort(first)].tolist():  # in order of first appearance
            if not any(abs(angle - v) <= BUCKET_TOL for v in levels):
                levels.append(angle)
        tails = tuple(range(2, min(q.shape[1], 6)))  # those of joints 3..6 that q has
        return cls(bucket_levels=tuple(sorted(levels)), tail_joints=tails)


def _regressors(model: ManipulatorModel, q, frames: np.ndarray, p: np.ndarray, wrench,
                cmap: ComplianceParameterMap) -> np.ndarray:
    """(P, 3, n_k) regressors from :func:`_kinematics` frames and the positions ``p`` (P, 2, 3)
    of each posture's observed marker and of the marker its ``wrench`` (P, 6) acts at."""
    wrench = np.asarray(wrench, dtype=float)
    if not np.all(np.isfinite(wrench)):
        raise ValueError("wrench components must be finite")
    J_obs, J_app = _joint_jacobians(model, frames, p[:, 0]), _joint_jacobians(model, frames, p[:, 1])
    torques = (np.swapaxes(J_app, 1, 2) @ wrench[:, :, None])[..., 0]  # tau = J^T w, one entry per joint
    postures = np.arange(len(q))
    A = np.zeros((len(q), 3, cmap.n_parameters))
    for j in range(model.n_joints):
        col = cmap.column_of(j, q[:, j])
        if col is not None:
            A[postures, :, col] += J_obs[:, :3, j] * torques[:, j, None]
    return A


def elastostatic_regressor(
    model: ManipulatorModel,
    q,
    wrench,
    fmarker: int,
    cmap: ComplianceParameterMap,
    marker: int,
) -> np.ndarray:
    """3 x n_k regressor mapping joint compliances to the marker deflection.

    ``wrench`` is the external load as a 6-vector (force in N, then torque
    in N m) applied at tool marker ``fmarker``; joint torques are taken
    there, while the observed deflection is that of ``marker``.  Columns of
    joints outside the map stay zero-free (no column at all), and the
    bucketed joint writes only into the column of its matching level.
    """
    q = np.reshape(q, (1, -1))
    frames, _, p = _kinematics(model, q, [[marker, fmarker]])
    return _regressors(model, q, frames, p, np.reshape(wrench, (1, 6)), cmap)[0]


Mode = Literal["elastostatic", "geometric", "combined"]


@dataclass(frozen=True)
class StackedSystem:
    """Tall linear system ``B x = dp`` of classes of identical rows, with per-class dispersions.

    Row i of the system observes ``dp[i]`` and belongs to class
    ``row_class[i]``; classes are numbered 0, 1, ... without gaps, and the
    default, ``None``, is one class per row.  Everything else is stored once
    per class k: its regressor row ``B[k]``, its dispersion ``sigma[k]`` and
    its origin, configuration ``config[k]``, tool marker ``marker[k]`` and
    measurement axis ``axis[k]`` (0..2, an index into ``noise.AXES``).  So
    the full regressor is ``B[row_class]``, and the solver factors each
    class once (see :mod:`armcal.estimator`).  ``columns`` names the entries
    of ``x``.  In a system that :func:`stack_system` builds, a class is one
    run of :func:`_class_starts` at one block kind and axis.

    ``class_plan`` groups the rows by ``row_class``, and ``class_group_plan``
    groups the classes by their (configuration, axis) pair, the unit that
    carries one dispersion, numbered without gaps; both are planned once per
    system for every solve and dispersion re-estimate.  All arrays are stored
    by :func:`~armcal.kinematics._frozen`'s rule: an input that a caller can
    still write, also through another view of its memory, is copied, and a
    read-only one with a read-only owner, such as another system's, is shared.
    """

    B: np.ndarray
    dp: np.ndarray
    sigma: np.ndarray
    config: np.ndarray
    marker: np.ndarray
    axis: np.ndarray
    columns: tuple[str, ...]
    row_class: np.ndarray | None = None
    class_plan: _Groups = field(init=False, repr=False)
    class_group_plan: _Groups = field(init=False, repr=False)

    def __post_init__(self):
        B = _frozen(self.B)
        dp, sigma = (_frozen(a, float, -1) for a in (self.dp, self.sigma))
        config, marker, axis = (_frozen(a, int, -1) for a in (self.config, self.marker, self.axis))
        c, n = B.shape
        if any(a.shape[0] != c for a in (sigma, config, marker, axis)):
            raise ValueError("B, sigma, config, marker and axis disagree on the row count")
        row_class = _frozen(np.arange(len(dp)) if self.row_class is None else self.row_class, int, -1)
        if row_class.shape[0] != dp.shape[0]:
            raise ValueError("row_class disagrees with dp on the row count")
        if np.any(row_class < 0) or not np.all(np.bincount(row_class)):
            raise ValueError("row_class must number its classes 0, 1, ... without gaps")
        classes = row_class.max(initial=-1) + 1
        if classes != c:
            raise ValueError(f"B has a row count of {c} for {classes} row classes")
        if np.any((axis < 0) | (axis >= len(AXES))):
            raise ValueError("axis entries must index x, y, z (0..2)")
        if len(self.columns) != n:
            raise ValueError("columns must name every parameter")
        if np.any(sigma <= 0.0):
            raise ValueError("sigma entries must be strictly positive")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(dp)) and np.all(np.isfinite(sigma))):
            raise ValueError("stacked system contains non-finite values")
        for name, arr in (("B", B), ("dp", dp), ("sigma", sigma), ("config", config),
                          ("marker", marker), ("axis", axis), ("row_class", row_class)):
            object.__setattr__(self, name, arr)
        group = np.unique(config, return_inverse=True)[1].reshape(-1) * len(AXES) + axis
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "class_plan", _Groups(row_class))
        object.__setattr__(self, "class_group_plan", _Groups(np.unique(group, return_inverse=True)[1].reshape(-1)))

    @property
    def n_equations(self) -> int:
        return len(self.dp)

    @property
    def n_parameters(self) -> int:
        return self.B.shape[1]


def stack_system(
    study: Study,
    model: ManipulatorModel,
    cmap: ComplianceParameterMap | None,
    noise: NoiseModel,
    mode: Mode = "elastostatic",
    params: Sequence[str] | None = None,
    sigma_floor: float = DEFAULT_SIGMA0,
) -> StackedSystem:
    """Assemble the study's per-row observation blocks into one stacked system.

    * ``elastostatic``: observations are deflections ``p - p0``, columns are
      the compliance parameters of ``cmap``.
    * ``geometric``: observations are ``p0`` minus the nominal forward
      kinematics, columns are the geometric parameters in ``params``.
    * ``combined``: each row contributes an unloaded block ``[J | 0]``
      against ``p0 - fk`` and a loaded block ``[J | A]`` against ``p - fk``,
      so the unknowns are the concatenation (geometric first).

    Rows come in the study's (config, marker, rep) order, read in place,
    and axes expand x, y, z.  Repeated experiments are stacked as
    independent rows of ``dp``, not averaged: averaging would hide the
    very replicate scatter the weighting stage feeds on.

    The system's classes are the runs of :func:`_class_starts` (the
    rows whose configuration, marker, joint vector, force and force marker
    agree bit for bit), split by block kind and axis.  Kinematics and
    regressor blocks are built once per class run, so the repetitions of a
    posture share one block and no (rows, parameters) matrix is built; a
    posture that recurs under another configuration, or after a different
    posture, is built again, to the same bits.  A study of fewer equations
    than parameters stacks; the solver names what it cannot determine.
    """
    if not len(study):
        raise ValueError("no records to stack")
    if mode not in ("elastostatic", "geometric", "combined"):
        raise ValueError(f"unknown stacking mode {mode!r}")
    if mode in ("elastostatic", "combined") and cmap is None:
        raise ValueError(f"{mode} stacking needs a compliance parameter map")
    if mode in ("geometric", "combined"):
        if not params:
            raise ValueError(f"{mode} stacking needs a geometric parameter selection")
        params = list(params)

    columns: tuple[str, ...]
    if mode == "elastostatic":
        columns = cmap.parameter_names
    elif mode == "geometric":
        columns = tuple(params)
    else:
        columns = tuple(params) + cmap.parameter_names

    start = _class_starts(study)
    rows, run = np.flatnonzero(start), np.cumsum(start) - 1  # each class run's first row; each row's run
    q, marker = study.q[rows], study.marker[rows]
    # the regressor also needs the position of the marker the load is applied at
    markers = marker[:, None] if mode == "geometric" else np.stack([marker, study.fmarker[rows]], axis=1)
    frames, _, p = _kinematics(model, q, markers)
    blocks = np.zeros((len(rows), 2 if mode == "combined" else 1, 3, len(columns)))
    if mode != "elastostatic":
        fk = p[:, 0]
        blocks[..., :len(params)] = _parameter_jacobians(model, frames, fk, params)[:, None]
    if mode != "geometric":
        wrench = np.concatenate([study.force[rows], np.zeros((len(rows), 3))], axis=1)
        blocks[:, -1, :, -cmap.n_parameters:] = _regressors(model, q, frames, p, wrench, cmap)
    # each row contributes one 3-row block, or two (unloaded, loaded) when combined
    per_record = 3 * blocks.shape[1]
    if mode == "elastostatic":
        dp = study.deflection
    else:
        fk = fk[run]
        dp = study.p0 - fk if mode == "geometric" else np.stack([study.p0 - fk, study.p - fk], axis=1)
    config, marker = np.repeat(study.config[rows], per_record), np.repeat(marker, per_record)
    axis = np.tile(np.arange(len(AXES)), len(rows) * blocks.shape[1])
    sigma = build_sigma(noise, config, axis, floor=sigma_floor)
    row_class = run[:, None] * per_record + np.arange(per_record)
    for a in (blocks, dp, sigma, config, marker, axis, row_class):  # frozen here, so the system shares them
        a.setflags(write=False)
    return StackedSystem(B=blocks.reshape(-1, len(columns)), dp=dp, sigma=sigma, config=config, marker=marker,
                         axis=axis, columns=columns, row_class=row_class)
