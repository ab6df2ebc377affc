"""Seeded generators for the three bundled experiment families (nonconvex
box-and-equality quadratic programs, generalized eigenvalue problems, and
distance-matrix clustering), plus CSV ingestion and a versioned JSON
instance format.

Each generator's ``to_problem`` supplies the oracles, the starting point
and, where one exists in closed form, a constants ledger for the
diagnostics.  None supplies a curvature input beyond ``smooth.L``, where
the first subproblem's curvature estimate starts: the solver measures the
weak convexity and the curvature itself.

Randomness comes from the Philox 64-bit counter-based generator keyed by
(seed, stream), one documented stream per matrix, so a seed fully
determines an instance across runs and platforms.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ConstantsLedger,
    ConstraintOracle,
    ProblemSpec,
    SmoothOracle,
)
from .prox import BoxSet, NonnegBallSet, box_indicator, nonneg_ball_indicator, zero_function

FORMAT_VERSION = 1

# Philox stream indices, one per generated matrix/vector.
STREAM_Q = 0
STREAM_A = 1
STREAM_LINEAR = 2
STREAM_FEASIBLE = 3
STREAM_X0 = 4
STREAM_B = 5


def _rng(seed: int, stream: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _spectral_norm(M: np.ndarray) -> float:
    """||M||_2 of a symmetric matrix, from its extreme eigenvalues."""
    w = np.linalg.eigvalsh(M)
    return float(max(abs(w[0]), abs(w[-1])))


def quadratic_objective(Q: np.ndarray, c: Optional[np.ndarray] = None) -> SmoothOracle:
    """SmoothOracle for (1/2) x'Qx + c'x."""
    Q = np.asarray(Q, dtype=float)
    c = np.zeros(Q.shape[0]) if c is None else np.asarray(c, dtype=float)
    return SmoothOracle(
        value_fn=lambda x: 0.5 * float(x @ (Q @ x)) + float(c @ x),
        gradient_fn=lambda x: Q @ x + c,
        smoothness=_spectral_norm(Q),
    )


# ---------------------------------------------------------------------------
# Box-and-equality quadratic programs
# ---------------------------------------------------------------------------


@dataclass
class LcqpInstance:
    """min (1/2)x'Qx + c'x  s.t.  Ax = b, lower <= x <= upper, with
    lambda_min(Q) = -rho by construction and b feasible by construction."""

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rho: float
    seed: int
    x0: np.ndarray

    def to_problem(self) -> ProblemSpec:
        """Build the ProblemSpec with a closed-form constants ledger.

        The AL smooth part (1/2)x'Qx + c'x + (beta/2)||Ax - b||^2 is
        rho-weakly convex for every beta, with ``rho`` this instance's
        field; the solver measures its own estimate, and
        ``IalmConfig(curvature_override=lambda beta, y: (rho, inf))`` caps
        it there.  APG starts the first subproblem's curvature estimate at
        ``smooth.L`` = ||Q||.
        """
        Q, c, A, b = self.Q, self.c, self.A, self.b
        box = BoxSet(self.lower, self.upper)
        smooth = quadratic_objective(Q, c)
        corner = float(np.sqrt(np.sum(np.maximum(self.lower**2, self.upper**2))))
        B0 = max(
            0.5 * smooth.L * corner**2 + float(np.linalg.norm(c)) * corner,
            smooth.L * corner + float(np.linalg.norm(c)),
        )
        ledger = ConstantsLedger(B0=B0, B_c=float(np.linalg.norm(A, 2)))
        return ProblemSpec(
            smooth=smooth,
            nonsmooth=box_indicator(box),
            constraints=ConstraintOracle.affine(A, b),
            constants=ledger,
            x0=self.x0,
        )


def lcqp_row_bounds(A: np.ndarray, b: np.ndarray, box: BoxSet) -> np.ndarray:
    """Per-row max{max_box |a_i'x - b_i|, ||a_i||}, box maximum in closed
    form: the ``component_bounds`` of affine rows over a box, for a caller
    that records them."""
    mid = 0.5 * (box.lower + box.upper)
    half = 0.5 * (box.upper - box.lower)
    center = A @ mid
    spread = np.abs(A) @ half
    val_max = np.maximum(center + spread - b, b - (center - spread))
    return np.maximum(val_max, np.linalg.norm(A, axis=1))


def gen_lcqp(m: int, n: int, rho: float, seed: int) -> LcqpInstance:
    """Random instance: Gaussian data, spectrum shifted so lambda_min(Q) = -rho,
    b = A xhat for xhat in the inner half of the box [-5, 5]^n."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    # Written so that NaN fails.
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    G = _rng(seed, STREAM_Q).standard_normal((n, n))
    Q = 0.5 * (G + G.T)
    w_min = float(np.linalg.eigvalsh(Q)[0])
    Q = Q - (w_min + rho) * np.eye(n)
    A = _rng(seed, STREAM_A).standard_normal((m, n))
    c = _rng(seed, STREAM_LINEAR).standard_normal(n)
    lower = np.full(n, -5.0)
    upper = np.full(n, 5.0)
    xhat = _rng(seed, STREAM_FEASIBLE).uniform(lower / 2.0, upper / 2.0)
    b = A @ xhat
    x0 = _rng(seed, STREAM_X0).uniform(lower, upper)
    return LcqpInstance(Q=Q, c=c, A=A, b=b, lower=lower, upper=upper, rho=rho, seed=seed, x0=x0)


# ---------------------------------------------------------------------------
# Generalized eigenvalue problems
# ---------------------------------------------------------------------------


@dataclass
class EvInstance:
    """min x'Qx  s.t.  x'Bx = 1, with B positive definite (lambda_min >= 1)."""

    Q: np.ndarray
    B: np.ndarray
    seed: int
    x0: np.ndarray

    def to_problem(self) -> ProblemSpec:
        """Build the ProblemSpec.

        No closed-form ledger exists (the domain is unbounded).  The solver
        measures both curvature estimates, starting APG's first subproblem
        at ``smooth.L`` = 2 ||Q||.  The constraint is linearized: one
        ``B @ x`` serves both c(x) and J(x)'v.
        """
        Q, B = self.Q, self.B
        smooth = SmoothOracle(
            value_fn=lambda x: float(x @ (Q @ x)),
            gradient_fn=lambda x: 2.0 * (Q @ x),
            smoothness=2.0 * _spectral_norm(Q),
        )

        def linearize(x):
            Bx = B @ x
            return np.array([float(x @ Bx) - 1.0]), lambda v: (2.0 * v[0]) * Bx

        constraints = ConstraintOracle.linearized(linearize, n_constraints=1)
        return ProblemSpec(
            smooth=smooth,
            nonsmooth=zero_function(),
            constraints=constraints,
            constants=None,
            x0=self.x0,
        )


def gen_ev(n: int, seed: int) -> EvInstance:
    """Random instance: Q and Bbar symmetrized Gaussians, B = Bbar + (||Bbar||+1)I,
    x0 on the unit sphere rescaled away from the constraint surface."""
    if n < 2:
        raise ValueError("need n >= 2")
    G = _rng(seed, STREAM_Q).standard_normal((n, n))
    Q = 0.5 * (G + G.T)
    Gb = _rng(seed, STREAM_B).standard_normal((n, n))
    Bbar = 0.5 * (Gb + Gb.T)
    B = Bbar + (_spectral_norm(Bbar) + 1.0) * np.eye(n)
    u = _rng(seed, STREAM_X0).standard_normal(n)
    u = u / np.linalg.norm(u)
    # The damping schedule needs ||c(x0)|| > 0; rescale if x0 starts on the
    # constraint surface.
    if abs(float(u @ (B @ u)) - 1.0) < 1e-3:
        u = math.sqrt(2.0) * u
    return EvInstance(Q=Q, B=B, seed=seed, x0=u)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


@dataclass
class ClusteringInstance:
    """min sum_ij D_ij <x_i, x_j>  over X in R^{n x r} restricted to the
    orthant-ball set, s.t. x_i' sum_j x_j = 1 for every i."""

    D: np.ndarray
    r: int
    s: float
    x0: np.ndarray

    def to_problem(self) -> ProblemSpec:
        """Build the ProblemSpec with its constants ledger.

        The solver measures both curvature estimates, starting APG's first
        subproblem at ``smooth.L`` = 2 ||D||.  The constraints are
        linearized: one column sum of X serves both c(x) and J(x)'v.

        The oracles keep only ``2 D``, formed once: scaling by 2 is exact,
        so the gradient ``(2 D) X`` is ``2 (D X)`` and the value is
        ``sum(D * XX')`` bit for bit (barring overflow and subnormal
        products).  J(x)'v is ``np.outer``'s own broadcast product without
        its wrapper, and the column sum is the reduction ``X.sum(axis=0)``
        calls.
        """
        D = self.D
        D2 = 2.0 * D
        n, r = D.shape[0], self.r

        def value(xflat):
            X = xflat.reshape(n, r)
            return 0.5 * float(np.sum(D2 * (X @ X.T)))

        def gradient(xflat):
            return (D2 @ xflat.reshape(n, r)).ravel()

        smooth = SmoothOracle(
            value_fn=value, gradient_fn=gradient, smoothness=2.0 * _spectral_norm(D)
        )

        def linearize(xflat):
            X = xflat.reshape(n, r)
            col = np.add.reduce(X, axis=0)
            return X @ col - 1.0, lambda v: (v[:, None] * col + X.T @ v).ravel()

        s = self.s
        ledger = ConstantsLedger(B0=max(smooth.L / 2.0 * s * s, smooth.L * s), B_c=2.0 * n * s)
        return ProblemSpec(
            smooth=smooth,
            nonsmooth=nonneg_ball_indicator(NonnegBallSet(self.s)),
            constraints=ConstraintOracle.linearized(linearize, n_constraints=n),
            constants=ledger,
            x0=self.x0,
        )


def distance_matrix(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def gen_clustering(points: np.ndarray, r: int, s: float, seed: int = 0) -> ClusteringInstance:
    """Instance from data points: D_ij = ||z_i - z_j||, embedding width r,
    orthant-ball radius s."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("points must be an n x d matrix with n >= 2")
    # Written so that NaN fails.
    if not (r >= 1 and s > 0):
        raise ValueError(f"need r >= 1 and s > 0, got r = {r} and s = {s}")
    D = distance_matrix(points)
    n = D.shape[0]
    X0 = np.abs(_rng(seed, STREAM_X0).standard_normal((n, r))) / math.sqrt(n * r)
    nrm = float(np.linalg.norm(X0))
    if nrm > s:
        X0 *= s / nrm
    x0 = X0.ravel()
    c0 = X0 @ X0.sum(axis=0) - 1.0
    if float(np.linalg.norm(c0)) < 1e-3:
        x0 = 0.5 * x0
    return ClusteringInstance(D=D, r=int(r), s=float(s), x0=x0)


# ---------------------------------------------------------------------------
# CSV ingestion and instance serialization
# ---------------------------------------------------------------------------


def load_points_csv(path: str) -> np.ndarray:
    """Numeric rectangular CSV -> n x d matrix; a non-numeric first row is
    treated as a header and skipped, and a nan or inf cell is refused."""
    rows: list[list[float]] = []
    width: Optional[int] = None
    first_content = True
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                vals = [float(cell) for cell in row]
            except ValueError:
                if first_content:
                    first_content = False
                    continue
                raise ValueError(f"{path}: line {lineno}: non-numeric cell") from None
            first_content = False
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}: line {lineno}: non-finite cell")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} cells, got {len(vals)}"
                )
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no numeric data rows")
    return np.asarray(rows, dtype=float)


# The instance file's "kind" of each instance class.
INSTANCE_KINDS = {"lcqp": LcqpInstance, "ev": EvInstance, "cluster": ClusteringInstance}
# The JSON type each field annotation takes.
JSON_TYPES = {"int": "integer", "float": "number", "str": "string", "dict": "object", "tuple": "array"}
# The Python type JSON decodes a string, object or array to.
DECODED = {"str": str, "dict": dict, "tuple": list}


def fields_to_json(obj) -> dict:
    """The fields of dataclass ``obj`` that are set (not None), arrays as
    row-major nested lists."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values if v is not None}


def field_from_json(name: str, annotation: str, value):
    """``value``, read from JSON, as a field ``name`` annotated ``annotation``
    (the modules postpone annotations, so a field's type is text): an
    ``np.ndarray`` as a float64 array, an ``int`` only from an integral
    number (40 or 40.0), a ``float`` from any number but a boolean, a
    ``str``, ``dict`` or ``tuple`` from a JSON string, object or array, and
    an ``Optional[...]`` from null as well.  Other fields pass through.  A
    value of the wrong type, or an array with a NaN entry, raises
    ValueError naming the key."""
    if annotation == "np.ndarray":
        array = np.asarray(value, dtype=float)
        # Infinite entries stay legal (a box may be unbounded); NaN is not.
        if np.isnan(array).any():
            raise ValueError(f"{name!r} holds NaN")
        return array
    if annotation.startswith("Optional["):
        inner = annotation.removeprefix("Optional[")[:-1]
        return None if value is None else field_from_json(name, inner, value)
    if annotation not in JSON_TYPES:
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if annotation == "int" and number and value % 1 == 0:
        return int(value)
    if annotation == "float" and number:
        return float(value)
    if isinstance(value, DECODED.get(annotation, ())):
        return tuple(value) if annotation == "tuple" else value
    got = json.dumps(value, default=repr)
    raise ValueError(f"{name!r} needs a JSON {JSON_TYPES[annotation]}, got {got}")


def fields_from_json(cls, data: dict, required: bool = True):
    """Build dataclass ``cls`` from the JSON keys named after its fields;
    with ``required=False`` a missing key keeps the field's default, and
    otherwise raises ValueError naming the key."""
    given = [f for f in dataclasses.fields(cls) if required or f.name in data]
    missing = [f.name for f in given if f.name not in data]
    if missing:
        raise ValueError(f"{cls.__name__} needs key {missing[0]!r}")
    return cls(**{f.name: field_from_json(f.name, f.type, data[f.name]) for f in given})


def check_keys(data: dict, known, where: str) -> None:
    """Raise ValueError naming the first key of ``data`` not in ``known``."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")


def instance_to_dict(instance) -> dict:
    """Versioned JSON-ready dict; matrices as row-major nested lists."""
    kinds = [kind for kind, cls in INSTANCE_KINDS.items() if type(instance) is cls]
    if not kinds:
        raise TypeError(f"unknown instance type {type(instance)!r}")
    return {"format_version": FORMAT_VERSION, "kind": kinds[0], **fields_to_json(instance)}


def instance_from_dict(data: dict):
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format_version {version!r}")
    kind = data.get("kind")
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return fields_from_json(INSTANCE_KINDS[kind], data)


def save_instance(instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh)


def load_instance(path: str):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
