"""Condensed multiparametric QP construction and polytope geometry.

Builds the horizon-stacked quadratic program in the input sequence from
system/cost/constraint data, provides the constraint-residual map, and
computes inscribed/enclosing radii of the input-sequence polytope.

The condensed program is

    minimize_u  0.5 u^T H u - x0^T F u   subject to   G u <= w + P x0,

scaled so that the objective equals the finite-horizon cost
V(x0, u) = sum_t x_t^T Q_t x_t + sum_t u_t^T R_t u_t up to an
x0-only constant: H = 2(Rbar + Bhat^T Qbar Bhat), F = -2 Ahat^T Qbar Bhat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qp import bounding_box, chebyshev_center

__all__ = [
    "LinearSystem",
    "StageCost",
    "BoxlikeConstraints",
    "StackedMaps",
    "CondensedQP",
    "FeasibleRadii",
    "stacked_maps",
    "build_condensed",
    "residuals",
    "polytope_radii",
    "feasible_radii",
    "box_constraints",
    "load_problem",
    "double_integrator_problem",
    "clip_problem",
]


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time linear dynamics x_{t+1} = A x_t + B u_t."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _check_finite("A", self.A)
        B = _check_finite("B", self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have the same number of rows as A")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u


@dataclass(frozen=True)
class StageCost:
    """Per-stage quadratic weights. Q applies to x_1..x_T, R to u_0..u_{T-1}.

    Scalar-matrix shorthands are expanded to T copies. Every Q_t and R_t
    must be symmetric positive definite.
    """

    Q: tuple
    R: tuple
    horizon: int

    def __post_init__(self):
        T = int(self.horizon)
        if T < 1:
            raise ValueError("horizon must be >= 1")
        Qs = self._expand("Q", self.Q, T)
        Rs = self._expand("R", self.R, T)
        object.__setattr__(self, "Q", Qs)
        object.__setattr__(self, "R", Rs)
        object.__setattr__(self, "horizon", T)

    @staticmethod
    def _expand(name, mats, T):
        arr = np.asarray(mats, dtype=float)
        if arr.ndim == 2:
            mats = [arr] * T
        if len(mats) != T:
            raise ValueError(f"need {T} {name} matrices, got {len(mats)}")
        out = []
        for M in mats:
            M = _check_finite(name, M)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} blocks must be square")
            if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max())):
                raise ValueError(f"{name} blocks must be symmetric")
            if np.linalg.eigvalsh(M).min() <= 0:
                raise ValueError(f"{name} blocks must be positive definite")
            out.append(_freeze(M))
        return tuple(out)


@dataclass(frozen=True)
class BoxlikeConstraints:
    """Polytopic state and input constraints A_x x <= b_x, A_u u <= b_u.

    Each polytope must contain the origin in its interior (all b entries
    strictly positive), which the recentered barrier relies on.
    """

    A_x: np.ndarray
    b_x: np.ndarray
    A_u: np.ndarray
    b_u: np.ndarray

    def __post_init__(self):
        A_x = _check_finite("A_x", self.A_x)
        b_x = _check_finite("b_x", self.b_x)
        A_u = _check_finite("A_u", self.A_u)
        b_u = _check_finite("b_u", self.b_u)
        if A_x.shape[0] != b_x.shape[0] or A_u.shape[0] != b_u.shape[0]:
            raise ValueError("constraint rows and offsets must match")
        if np.any(b_x <= 0) or np.any(b_u <= 0):
            raise ValueError("origin must lie in the interior of both constraint sets")
        for name, val in (("A_x", A_x), ("b_x", b_x), ("A_u", A_u), ("b_u", b_u)):
            object.__setattr__(self, name, _freeze(val))

    @property
    def k_x(self) -> int:
        return self.A_x.shape[0]

    @property
    def k_u(self) -> int:
        return self.A_u.shape[0]


@dataclass(frozen=True)
class StackedMaps:
    """Horizon-stacked maps with x_{1:T} = Ahat x0 + Bhat u_{0:T-1}."""

    Ahat: np.ndarray
    Bhat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Ahat", _freeze(self.Ahat))
        object.__setattr__(self, "Bhat", _freeze(self.Bhat))


def stacked_maps(sys: LinearSystem, T: int) -> StackedMaps:
    """Stack the dynamics over a horizon of T steps.

    Bhat is block lower triangular with block (i, j) = A^{i-j} B for
    i >= j and zeros above the diagonal (blocks indexed from 0).
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    d_x, d_u = sys.d_x, sys.d_u
    powers = [np.eye(d_x)]
    for _ in range(T):
        powers.append(sys.A @ powers[-1])
    Ahat = np.vstack([powers[t + 1] for t in range(T)])
    Bhat = np.zeros((T * d_x, T * d_u))
    for i in range(T):
        for j in range(i + 1):
            Bhat[i * d_x:(i + 1) * d_x, j * d_u:(j + 1) * d_u] = powers[i - j] @ sys.B
    return StackedMaps(Ahat=Ahat, Bhat=Bhat)


@dataclass(frozen=True)
class CondensedQP:
    """Condensed program data: 0.5 u^T H u - x0^T F u s.t. G u <= w + P x0.

    alpha1/alpha2 are the extreme eigenvalues of H (strong convexity and
    smoothness constants of the quadratic objective).
    """

    H: np.ndarray
    F: np.ndarray
    G: np.ndarray
    w: np.ndarray
    P: np.ndarray
    d_x: int
    d_u: int
    T: int
    alpha1: float = field(init=False)
    alpha2: float = field(init=False)

    def __post_init__(self):
        H = _check_finite("H", self.H)
        n = H.shape[0]
        if not np.allclose(H, H.T, atol=1e-9 * max(1.0, np.abs(H).max())):
            raise ValueError("H must be symmetric")
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() <= 0:
            raise ValueError("H must be positive definite")
        F = _check_finite("F", self.F)
        G = _check_finite("G", self.G)
        w = _check_finite("w", self.w)
        P = _check_finite("P", self.P)
        if F.shape != (self.d_x, n) or G.shape[1] != n:
            raise ValueError("inconsistent dimensions in condensed program")
        if w.shape != (G.shape[0],) or P.shape != (G.shape[0], self.d_x):
            raise ValueError("inconsistent constraint dimensions")
        for name, val in (("H", H), ("F", F), ("G", G), ("w", w), ("P", P)):
            object.__setattr__(self, name, _freeze(val))
        object.__setattr__(self, "alpha1", float(eigs.min()))
        object.__setattr__(self, "alpha2", float(eigs.max()))

    @property
    def m(self) -> int:
        return self.G.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @cached_property
    def Hinv_GT(self) -> np.ndarray:
        """H^{-1} G^T, solved once per program (read-only)."""
        return _freeze(np.linalg.solve(self.H, self.G.T))

    @cached_property
    def gram(self) -> np.ndarray:
        """G H^{-1} G^T, formed once per program (read-only)."""
        return _freeze(self.G @ self.Hinv_GT)

    @cached_property
    def Hinv_FT(self) -> np.ndarray:
        """H^{-1} F^T, the unconstrained gain, solved once per program (read-only)."""
        return _freeze(np.linalg.solve(self.H, self.F.T))

    def bounds_rhs(self, x0: np.ndarray) -> np.ndarray:
        """Right-hand side w + P x0 of the input-sequence polytope."""
        return self.w + self.P @ np.asarray(x0, dtype=float)

    def objective(self, x0: np.ndarray, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.H @ u - np.asarray(x0, dtype=float) @ self.F @ u)


def build_condensed(
    sys: LinearSystem,
    cost: StageCost,
    cons: BoxlikeConstraints,
) -> CondensedQP:
    """Condense the finite-horizon problem into the input sequence.

    Constraint rows are ordered inputs first (u_0..u_{T-1}) then states
    (x_1..x_T), so m = T*k_u + T*k_x. Redundant rows are kept.
    """
    T = cost.horizon
    d_x, d_u = sys.d_x, sys.d_u
    if cons.A_x.shape[1] != d_x or cons.A_u.shape[1] != d_u:
        raise ValueError("constraint matrices do not match system dimensions")
    for Q in cost.Q:
        if Q.shape[0] != d_x:
            raise ValueError("Q blocks must match the state dimension")
    for R in cost.R:
        if R.shape[0] != d_u:
            raise ValueError("R blocks must match the input dimension")

    maps = stacked_maps(sys, T)
    Qbar = np.zeros((T * d_x, T * d_x))
    Rbar = np.zeros((T * d_u, T * d_u))
    for t in range(T):
        Qbar[t * d_x:(t + 1) * d_x, t * d_x:(t + 1) * d_x] = cost.Q[t]
        Rbar[t * d_u:(t + 1) * d_u, t * d_u:(t + 1) * d_u] = cost.R[t]

    H = 2.0 * (Rbar + maps.Bhat.T @ Qbar @ maps.Bhat)
    H = 0.5 * (H + H.T)
    F = -2.0 * maps.Ahat.T @ Qbar @ maps.Bhat

    Au_stack = np.kron(np.eye(T), cons.A_u)
    bu_stack = np.tile(cons.b_u, T)
    Ax_stack = np.kron(np.eye(T), cons.A_x)
    bx_stack = np.tile(cons.b_x, T)

    G = np.vstack([Au_stack, Ax_stack @ maps.Bhat])
    P = np.vstack([np.zeros((T * cons.k_u, d_x)), -Ax_stack @ maps.Ahat])
    w = np.concatenate([bu_stack, bx_stack])

    return CondensedQP(H=H, F=F, G=G, w=w, P=P, d_x=d_x, d_u=d_u, T=T)


def residuals(qp: CondensedQP, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Constraint residuals P x0 + w - G u; nonnegative iff (x0, u) feasible."""
    u = np.asarray(u, dtype=float)
    if u.shape != (qp.n,):
        raise ValueError(f"u must have shape ({qp.n},)")
    return qp.bounds_rhs(x0) - qp.G @ u


@dataclass(frozen=True)
class FeasibleRadii:
    """Inscribed/enclosing radii of the input-sequence polytope.

    r is the Chebyshev radius around ``center``; R bounds max ||u|| over
    the polytope (origin-centered), obtained from per-coordinate support
    values; R_center is the same corner bound measured from the Chebyshev
    center, so B(center, r) subset K subset B(center, R_center).
    """

    r: float
    R: float
    center: np.ndarray
    R_center: float
    lo: np.ndarray
    hi: np.ndarray


def polytope_radii(G: np.ndarray, b: np.ndarray) -> FeasibleRadii:
    """Chebyshev radius and enclosing-ball bounds of {u : G u <= b}.

    R comes from 2n support LPs: the coordinate box [lo, hi] enclosing the
    polytope, whose farthest corner from the origin bounds max ||u||.
    Raises InfeasibleError (with a Farkas certificate) on an empty
    polytope and UnboundedError when some coordinate is unbounded.
    """
    center, r = chebyshev_center(G, b)
    lo, hi = bounding_box(G, b)
    R = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    R_center = float(np.linalg.norm(np.maximum(np.abs(lo - center), np.abs(hi - center))))
    return FeasibleRadii(r=r, R=R, center=center, R_center=R_center, lo=lo, hi=hi)


def feasible_radii(qp: CondensedQP, x0: np.ndarray) -> FeasibleRadii:
    """``polytope_radii`` of the input-sequence polytope {u : G u <= w + P x0}."""
    return polytope_radii(qp.G, qp.bounds_rhs(x0))


def box_constraints(d_x: int, d_u: int, state_bound, input_bound) -> BoxlikeConstraints:
    """Symmetric infinity-norm boxes ||x||_inf <= state_bound, ||u||_inf <= input_bound.

    Bounds may be scalars or per-coordinate vectors.
    """
    bx = np.broadcast_to(np.asarray(state_bound, dtype=float), (d_x,)).copy()
    bu = np.broadcast_to(np.asarray(input_bound, dtype=float), (d_u,)).copy()
    A_x = np.vstack([np.eye(d_x), -np.eye(d_x)])
    A_u = np.vstack([np.eye(d_u), -np.eye(d_u)])
    return BoxlikeConstraints(A_x=A_x, b_x=np.tile(bx, 2), A_u=A_u, b_u=np.tile(bu, 2))


def _halfspaces_from_config(entry, dim: int, kind: str):
    if isinstance(entry, dict) and "A" in entry:
        return np.asarray(entry["A"], dtype=float), np.asarray(entry["b"], dtype=float)
    bound = np.broadcast_to(np.asarray(entry, dtype=float), (dim,)).copy()
    eye = np.eye(dim)
    return np.vstack([eye, -eye]), np.tile(bound, 2)


def load_problem(config: dict):
    """Build (system, cost, constraints) from a parsed config mapping.

    Schema (matrices are row-major nested lists):

        system:       {A: [[...]], B: [[...]]}
        cost:         {Q: [[...]] or [T matrices], R: likewise, horizon: int}
        constraints:  state_box / input_box scalars or vectors, or explicit
                      {A: ..., b: ...} halfspace systems under state/input.
    """
    sys = LinearSystem(A=np.asarray(config["system"]["A"], dtype=float),
                       B=np.asarray(config["system"]["B"], dtype=float))
    cost_cfg = config["cost"]
    cost = StageCost(Q=np.asarray(cost_cfg["Q"], dtype=float),
                     R=np.asarray(cost_cfg["R"], dtype=float),
                     horizon=int(cost_cfg["horizon"]))
    cons_cfg = config["constraints"]
    if "state_box" in cons_cfg:
        A_x, b_x = _halfspaces_from_config(cons_cfg["state_box"], sys.d_x, "state")
    else:
        A_x, b_x = _halfspaces_from_config(cons_cfg["state"], sys.d_x, "state")
    if "input_box" in cons_cfg:
        A_u, b_u = _halfspaces_from_config(cons_cfg["input_box"], sys.d_u, "input")
    else:
        A_u, b_u = _halfspaces_from_config(cons_cfg["input"], sys.d_u, "input")
    cons = BoxlikeConstraints(A_x=A_x, b_x=b_x, A_u=A_u, b_u=b_u)
    return sys, cost, cons


def double_integrator_problem(T: int = 10, state_bound: float = 10.0,
                              input_bound: float = 1.0, r_weight: float = 0.01):
    """The 2-D benchmark system: A = [[1,1],[0,1]], B = [0;1], Q = I, R = 0.01 I."""
    sys = LinearSystem(A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.array([[0.0], [1.0]]))
    cost = StageCost(Q=np.eye(2), R=r_weight * np.eye(1), horizon=T)
    cons = box_constraints(2, 1, state_bound, input_bound)
    return sys, cost, cons


def clip_problem(a: float = 2.0, r_weight: float = 1e-4, state_bound: float = 100.0,
                 input_bound: float = 1.0):
    """Scalar one-step system whose optimal policy is a clipped linear law.

    With dynamics x' = a x + u, Q = 1, small R, and |u| <= input_bound, the
    hard-constrained policy is approximately clip(-a x, -1, 1).
    """
    sys = LinearSystem(A=np.array([[a]]), B=np.array([[1.0]]))
    cost = StageCost(Q=np.eye(1), R=r_weight * np.eye(1), horizon=1)
    cons = box_constraints(1, 1, state_bound, input_bound)
    return sys, cost, cons
