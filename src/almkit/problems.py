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
import json
import math
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
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _spectrum(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min(M), ||M||_2) of a symmetric matrix, from one eigvalsh."""
    w = np.linalg.eigvalsh(M)
    return float(w[0]), float(max(abs(w[0]), abs(w[-1])))


def quadratic_objective(Q: np.ndarray, c: Optional[np.ndarray] = None, half: bool = True) -> SmoothOracle:
    """SmoothOracle for (1/2) x'Qx + c'x (or x'Qx + c'x when half=False)."""
    Q = np.asarray(Q, dtype=float)
    c = np.zeros(Q.shape[0]) if c is None else np.asarray(c, dtype=float)
    lam_min, norm = _spectrum(Q)
    scale = 0.5 if half else 1.0
    return SmoothOracle(
        value_fn=lambda x: scale * float(x @ (Q @ x)) + float(c @ x),
        gradient_fn=lambda x: 2.0 * scale * (Q @ x) + c,
        smoothness=2.0 * scale * norm,
        weak_convexity=2.0 * scale * max(0.0, -lam_min),
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
        rho-weakly convex for every beta, and ``smooth.rho`` records it;
        the solver measures its own estimate, and
        ``IalmConfig(curvature_override=lambda beta, y: (rho, inf))`` caps
        it there.  APG starts the first subproblem's curvature estimate at
        ``smooth.L`` = ||Q||.
        """
        Q, c, A, b = self.Q, self.c, self.A, self.b
        box = BoxSet(self.lower, self.upper)
        smooth = SmoothOracle(
            value_fn=lambda x: 0.5 * float(x @ (Q @ x)) + float(c @ x),
            gradient_fn=lambda x: Q @ x + c,
            smoothness=_spectrum(Q)[1],
            weak_convexity=self.rho,
        )
        constraints = ConstraintOracle.affine(A, b, component_bounds=lcqp_row_bounds(A, b, box))
        corner = float(np.sqrt(np.sum(np.maximum(self.lower**2, self.upper**2))))
        B0 = max(
            0.5 * smooth.L * corner**2 + float(np.linalg.norm(c)) * corner,
            smooth.L * corner + float(np.linalg.norm(c)),
        )
        ledger = ConstantsLedger(
            B0=B0,
            B_c=constraints.jacobian_norm_bound,
            B_i=constraints.component_bounds,
            D=box.diameter,
        )
        return ProblemSpec(
            smooth=smooth,
            nonsmooth=box_indicator(box),
            constraints=constraints,
            constants=ledger,
            x0=self.x0,
        )


def lcqp_row_bounds(A: np.ndarray, b: np.ndarray, box: BoxSet) -> np.ndarray:
    """Per-row max{max_box |a_i'x - b_i|, ||a_i||}, box maximum in closed form."""
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
    if rho <= 0:
        raise ValueError("rho must be positive")
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
        at ``smooth.L`` = 2 ||Q||.
        """
        Q, B = self.Q, self.B
        lam_min_Q, norm_Q = _spectrum(Q)
        smooth = SmoothOracle(
            value_fn=lambda x: float(x @ (Q @ x)),
            gradient_fn=lambda x: 2.0 * (Q @ x),
            smoothness=2.0 * norm_Q,
            weak_convexity=2.0 * max(0.0, -lam_min_Q),
        )
        constraints = ConstraintOracle(
            evaluate_fn=lambda x: np.array([float(x @ (B @ x)) - 1.0]),
            jacobian_t_apply_fn=lambda x, v: (2.0 * v[0]) * (B @ x),
            n_constraints=1,
        )
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
    B = Bbar + (_spectrum(Bbar)[1] + 1.0) * np.eye(n)
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
        subproblem at ``smooth.L`` = 2 ||D||.
        """
        D = self.D
        n, r = D.shape[0], self.r

        def value(xflat):
            X = xflat.reshape(n, r)
            return float(np.sum(D * (X @ X.T)))

        def gradient(xflat):
            X = xflat.reshape(n, r)
            return (2.0 * (D @ X)).ravel()

        lam_min_D, norm_D = _spectrum(D)
        smooth = SmoothOracle(
            value_fn=value,
            gradient_fn=gradient,
            smoothness=2.0 * norm_D,
            weak_convexity=2.0 * max(0.0, -lam_min_D),
        )

        def evaluate(xflat):
            X = xflat.reshape(n, r)
            return X @ X.sum(axis=0) - 1.0

        def jac_t_apply(xflat, v):
            X = xflat.reshape(n, r)
            col = X.sum(axis=0)
            return (np.outer(v, col) + (X.T @ v)[None, :]).ravel()

        # Per-row constraint Hessian is (e_i 1' + 1 e_i') kron I_r.
        Ln = 1.0 + math.sqrt(n)
        rho_n = max(0.0, math.sqrt(n) - 1.0)
        s = self.s
        Bi = max(s * s * math.sqrt(n) + 1.0, 2.0 * math.sqrt(n) * s)
        ledger = ConstantsLedger(
            B0=max(smooth.L / 2.0 * s * s, smooth.L * s),
            B_c=2.0 * n * s,
            B_i=np.full(n, Bi),
            D=2.0 * s,
        )
        constraints = ConstraintOracle(
            evaluate_fn=evaluate,
            jacobian_t_apply_fn=jac_t_apply,
            n_constraints=n,
            component_smoothness=np.full(n, Ln),
            component_weak_convexity=np.full(n, rho_n),
            component_bounds=np.full(n, Bi),
        )
        return ProblemSpec(
            smooth=smooth,
            nonsmooth=nonneg_ball_indicator(NonnegBallSet(self.s)),
            constraints=constraints,
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
    if r < 1 or s <= 0:
        raise ValueError("need r >= 1 and s > 0")
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
    treated as a header and skipped."""
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


def instance_to_dict(instance) -> dict:
    """Versioned JSON-ready dict; matrices as row-major nested lists."""
    if isinstance(instance, LcqpInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "lcqp",
            "seed": instance.seed,
            "rho": instance.rho,
            "Q": instance.Q.tolist(),
            "c": instance.c.tolist(),
            "A": instance.A.tolist(),
            "b": instance.b.tolist(),
            "lower": instance.lower.tolist(),
            "upper": instance.upper.tolist(),
            "x0": instance.x0.tolist(),
        }
    if isinstance(instance, EvInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "ev",
            "seed": instance.seed,
            "Q": instance.Q.tolist(),
            "B": instance.B.tolist(),
            "x0": instance.x0.tolist(),
        }
    if isinstance(instance, ClusteringInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "cluster",
            "D": instance.D.tolist(),
            "r": instance.r,
            "s": instance.s,
            "x0": instance.x0.tolist(),
        }
    raise TypeError(f"unknown instance type {type(instance)!r}")


def instance_from_dict(data: dict):
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format_version {version!r}")
    kind = data.get("kind")
    if kind == "lcqp":
        return LcqpInstance(
            Q=np.asarray(data["Q"], dtype=float),
            c=np.asarray(data["c"], dtype=float),
            A=np.asarray(data["A"], dtype=float),
            b=np.asarray(data["b"], dtype=float),
            lower=np.asarray(data["lower"], dtype=float),
            upper=np.asarray(data["upper"], dtype=float),
            rho=float(data["rho"]),
            seed=int(data["seed"]),
            x0=np.asarray(data["x0"], dtype=float),
        )
    if kind == "ev":
        return EvInstance(
            Q=np.asarray(data["Q"], dtype=float),
            B=np.asarray(data["B"], dtype=float),
            seed=int(data["seed"]),
            x0=np.asarray(data["x0"], dtype=float),
        )
    if kind == "cluster":
        return ClusteringInstance(
            D=np.asarray(data["D"], dtype=float),
            r=int(data["r"]),
            s=float(data["s"]),
            x0=np.asarray(data["x0"], dtype=float),
        )
    raise ValueError(f"unknown instance kind {kind!r}")


def save_instance(instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh)


def load_instance(path: str):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
