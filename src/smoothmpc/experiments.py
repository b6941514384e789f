"""Benchmark pipeline: experts, smoothness sweeps, bound sweeps, imitation runs.

Everything here is a deterministic function of (config, seed). The
explicit law is evaluated through the discovered piece table; the
feasible state set (a polygon for 2-D states) is recovered once from
support LPs and reused for projection and rejection sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .barrier import (
    BarrierBatch,
    BarrierProblem,
    barrier_hessian,
    barrier_hessian_batch,
    barrier_jacobian_batch,
    make_barrier_problem,
    solve_barrier,
    solve_barrier_batch,
    tensor_spectral_norm,
)
from .bounds import (
    BoundReport,
    NotApplicableError,
    directional_bounds,
    error_upper,
    first_residual_lower_bound,
    hessian_upper_bound,
    normalized_min_residual,
    quadratic_lipschitz,
    residual_lower_bound,
)
from .core import CondensedQP, build_condensed, feasible_radii, load_problem, state_halfwidth
from .errors import ConfigurationError, InfeasibleError
from .explicit import PieceTableEvaluator, discover_pieces, gain_constants, state_grid
from .mlp import TrainConfig, train_imitator
from .qp import support
from .simulate import imitation_error, sample_dataset
from .smoothing import RandomizedPolicy, SmoothingConfig

__all__ = [
    "Workbench",
    "BarrierExpert",
    "feasible_polygon",
    "PolygonProjector",
    "slice_smoothness",
    "smoothness_sweep",
    "bounds_sweep",
    "imitation_experiment",
    "matched_levels",
]

SAMPLE_SHRINK = 0.8
REFINE_PEAKS = 3


def feasible_polygon(qp: CondensedQP) -> np.ndarray:
    """Vertices (counterclockwise) of the feasible 2-D state set.

    The set {x : exists u with G u <= w + P x} is a polygon, the projection
    of a polytope in (x, u). Edge refinement by support LPs recovers it
    (the planar case of Lassez & Lassez's projection by convex hulls):
    the support points in the directions 0, 2π/3 and 4π/3 form a
    counterclockwise ring; for each ring edge (a, b) one LP maximizes its
    outward normal n over the set. A maximum above n·a (by more than
    1e-9 relative) is a point of the set outside the edge, inserted
    between a and b; otherwise the edge's line supports the set, so the
    edge lies on its boundary. Every ring point is in the set and every
    final edge supports it, so the ring's hull is the set itself, to the
    1e-9 tolerance. Each inserted point and each final edge costs one LP:
    2V LPs for V vertices when the three starting points are distinct
    vertices, one more for each repeated starting point and two more for
    each point found inside an edge. The convex hull drops such points.
    """
    if qp.d_x != 2:
        raise ValueError("polygon recovery requires a 2-D state")
    G_xu = np.hstack([-qp.P, qp.G])
    c = np.zeros(2 + qp.n)

    def support_point(direction):
        c[:2] = direction
        z, value = support(G_xu, qp.w, c)
        return z[:2], value

    ring = [support_point((math.cos(th), math.sin(th)))[0]
            for th in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    stack = [(ring[2], ring[0]), (ring[1], ring[2]), (ring[0], ring[1])]
    pts = []
    while stack:
        a, b = stack.pop()
        e = b - a
        length = math.hypot(e[0], e[1])
        if length > 0.0:
            n = np.array([e[1], -e[0]]) / length
            p, value = support_point(n)
            offset = float(n @ a)
            if value - offset > 1e-9 * (1.0 + abs(offset)):
                stack += [(p, b), (a, p)]
                continue
        pts.append(a)
    pts = np.array(pts)
    hull = ConvexHull(pts)
    return pts[hull.vertices]


class PolygonProjector:
    """Euclidean projection onto a convex polygon, vectorized over points."""

    def __init__(self, vertices: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.edges = np.roll(self.vertices, -1, axis=0) - self.vertices
        self._edge_norm2 = np.einsum("ij,ij->i", self.edges, self.edges)
        self.last_inside = None

    def inside(self, X: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Rows X whose cross product e0 (x1 - v1) - e1 (x0 - v0) with every
        edge (e0, e1) from vertex (v0, v1) is >= margin, one edge at a time."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        x0, x1 = np.ascontiguousarray(X[:, 0]), np.ascontiguousarray(X[:, 1])
        ok = np.ones(X.shape[0], dtype=bool)
        a, b, passed = np.empty_like(x0), np.empty_like(x0), np.empty_like(ok)
        for (v0, v1), (e0, e1) in zip(self.vertices, self.edges):
            np.multiply(np.subtract(x1, v1, out=a), e0, out=a)
            np.multiply(np.subtract(x0, v0, out=b), e1, out=b)
            ok &= np.greater_equal(np.subtract(a, b, out=a), margin, out=passed)
        return ok

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """X with the rows outside the polygon replaced by their nearest boundary points.

        A row outside takes, over the edges in order, the first of the
        least distances to its clamped projections v + t e, t = ((x - v) . e
        / |e|^2) clipped to [0, 1], one edge at a time; a NaN distance, once
        met, is kept. ``last_inside`` keeps the call's ``inside`` mask.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X.copy()
        self.last_inside = self.inside(X)
        todo = np.flatnonzero(~self.last_inside)
        if todo.size == 0:
            return out
        p0, p1 = X[:, 0].take(todo), X[:, 1].take(todo)
        for k, ((v0, v1), (e0, e1)) in enumerate(zip(self.vertices, self.edges)):
            t = np.clip(((p0 - v0) * e0 + (p1 - v1) * e1) / self._edge_norm2[k], 0.0, 1.0)
            q0, q1 = v0 + t * e0, v1 + t * e1
            d2 = (p0 - q0) ** 2 + (p1 - q1) ** 2
            if k == 0:
                best, b0, b1 = d2, q0, q1
                continue
            closer = (d2 < best) | (np.isnan(d2) & ~np.isnan(best))
            best = np.where(closer, d2, best)
            b0, b1 = np.where(closer, q0, b0), np.where(closer, q1, b1)
        out[todo, 0] = b0
        out[todo, 1] = b1
        return out


class BarrierExpert:
    """Barrier control law with its analytic first-input Jacobian, on stacks of states.

    A stack of states is one stacked solve (``solve_barrier_batch``) from
    cold starts, the same in any order. The expert keeps its last stack
    and its solutions, and a call at the same stack, bit for bit, reuses
    them, so asking for the inputs and the Jacobians at a stack solves
    once.
    """

    def __init__(self, bp: BarrierProblem):
        self.bp = bp
        self._stack = None  # (stack bytes, BarrierBatch)

    def _solutions(self, X: np.ndarray) -> BarrierBatch:
        """The solutions at the rows of X, NaN rows where infeasible."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        key = X.tobytes()
        if self._stack is None or self._stack[0] != key:
            self._stack = (key, solve_barrier_batch(self.bp, X))
        return self._stack[1]

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """First inputs at the rows of X, NaN rows where infeasible."""
        return self._solutions(X).u_eta[:, : self.bp.qp.d_u]

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """First-input Jacobians at the rows of X, shape (N, d_u, d_x), NaN where infeasible."""
        return barrier_jacobian_batch(self.bp, self._solutions(X).phi)[:, : self.bp.qp.d_u]


@dataclass
class Workbench:
    """Shared problem data for the benchmark commands."""

    qp: CondensedQP
    sys: object
    table: PieceTableEvaluator
    projector: PolygonProjector
    outer_radius: float
    state_halfwidth: float = 10.0

    @classmethod
    def from_config(cls, config: dict, resolution: int = 201) -> "Workbench":
        sys_, cost, cons = load_problem(config)
        if sys_.d_x != 2:
            raise ConfigurationError(
                f"the benchmark sweeps need a 2-D state (a feasible polygon), got d_x = {sys_.d_x}")
        qp = build_condensed(sys_, cost, cons)
        half = state_halfwidth(cons)
        R = feasible_radii(qp, np.zeros(qp.d_x)).R
        grid = state_grid([-half] * qp.d_x, [half] * qp.d_x, resolution)
        coll = discover_pieces(qp, grid)
        table = PieceTableEvaluator(qp, coll)
        projector = PolygonProjector(feasible_polygon(qp))
        return cls(qp=qp, sys=sys_, table=table, projector=projector, outer_radius=R,
                   state_halfwidth=half)

    def barrier_expert(self, eta: float) -> BarrierExpert:
        return BarrierExpert(make_barrier_problem(self.qp, eta, outer_radius=self.outer_radius))

    def randomized_expert(self, sigma: float, n_samples: int = 1500,
                          seed: int = 0) -> RandomizedPolicy:
        cfg = SmoothingConfig(sigma=sigma, n_samples=n_samples, seed=seed)
        return RandomizedPolicy(self.table, cfg, projector=self.projector)

    def sample_initial_states(self, n: int, seed: int) -> np.ndarray:
        """Uniform over the shrunken state box, rejected into the feasible set."""
        rng = np.random.default_rng(seed)
        box = SAMPLE_SHRINK * self.state_halfwidth
        out = []
        while len(out) < n:
            cand = rng.uniform(-box, box, size=(4 * n, self.qp.d_x))
            keep = self.projector.inside(cand, margin=1e-9)
            out.extend(cand[keep][: n - len(out)])
        return np.array(out)


# --- smoothness measurement -------------------------------------------------

def slice_smoothness(jacobians, anchor: np.ndarray, direction: np.ndarray,
                     span: float, coarse_h: float, min_h: float) -> dict:
    """Max Jacobian norm and Jacobian variation along one state-space line.

    Scans coarsely, then repeatedly refines windows around the
    REFINE_PEAKS largest variation peaks (quartering the step) until the
    step reaches ``min_h`` or the estimate stabilizes; this resolves
    features much narrower than the coarse grid without a global fine
    grid. ``jacobians(X)`` gives the Jacobians at the rows of X, shape
    (N, d_u, d_x), with NaN where a state has none (outside the feasible
    set); such points are skipped. The coarse scan is one call, and so are
    the windows of each refinement level together.
    """
    anchor = np.asarray(anchor, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def scan(windows):
        """Largest Jacobian norm over the windows, and each window's
        (midpoint, variation ratio) between neighbours that both have one."""
        ss = np.concatenate(windows)
        J = np.asarray(jacobians(anchor + ss[:, None] * direction), dtype=float)
        ok = ~np.isnan(J).any(axis=(1, 2))
        L0_loc = float(np.linalg.norm(J[ok], 2, axis=(1, 2)).max()) if ok.any() else 0.0
        ends = np.cumsum([len(w) for w in windows])
        pair = ok[:-1] & ok[1:]
        pair[ends[:-1] - 1] = False  # no pair across two windows
        i = np.flatnonzero(pair)
        cands = [[] for _ in windows]
        if i.size:
            ratios = np.linalg.norm(J[i + 1] - J[i], 2, axis=(1, 2)) / (ss[i + 1] - ss[i])
            for w, j, ratio in zip(np.searchsorted(ends, i, side="right"), i, ratios):
                cands[w].append((0.5 * (ss[j] + ss[j + 1]), float(ratio)))
        return L0_loc, cands

    L0, (cand,) = scan([np.arange(-span, span + coarse_h / 2, coarse_h)])
    cand.sort(key=lambda t: -t[1])
    L1 = cand[0][1] if cand else 0.0
    centers = [c for c, _ in cand[:REFINE_PEAKS]]

    h = coarse_h
    while h / 4.0 >= min_h and centers:
        h_new = h / 4.0
        L0_loc, cands = scan([np.arange(c - 2.5 * h, c + 2.5 * h + h_new / 2, h_new)
                              for c in centers])
        L0 = max(L0, L0_loc)
        improved = 0.0
        new_centers = []
        for cand_loc in cands:
            if cand_loc:
                cand_loc.sort(key=lambda t: -t[1])
                improved = max(improved, cand_loc[0][1])
                new_centers.append(cand_loc[0][0])
        if improved <= L1 * 1.05 and h <= coarse_h / 16.0:
            L1 = max(L1, improved)
            break
        L1 = max(L1, improved)
        centers = new_centers
        h = h_new
    return {"L0": L0, "L1": L1}


# (anchor, direction) of each probe slice, scanned over +-SLICE_SPAN
PROBE_SLICES = ((np.array([0.0, 1.5]), np.array([1.0, 0.0])),
                (np.array([0.0, -3.0]), np.array([1.0, 0.0])),
                (np.array([2.0, 0.0]), np.array([0.0, 1.0])))
SLICE_SPAN = 7.0


def expert_smoothness(jacobians, feature_scale: float) -> dict:
    """Smoothness along the benchmark's probe slices, resolved to feature_scale;
    ``jacobians`` is a batch function, as in ``slice_smoothness``."""
    coarse_h = 0.25
    min_h = float(np.clip(feature_scale / 4.0, 1e-4, coarse_h))
    L0 = L1 = 0.0
    for anchor, direction in PROBE_SLICES:
        out = slice_smoothness(jacobians, anchor, direction, SLICE_SPAN, coarse_h, min_h)
        L0 = max(L0, out["L0"])
        L1 = max(L1, out["L1"])
    return {"L0_max": L0, "L1_max": L1}


def _sup_error(policy, reference, pts: np.ndarray) -> float:
    """Largest control distance to the piece table over the states both evaluate.

    The table is asked for its exact law, so a state outside every
    discovered region is compared against its per-point QP solution.
    """
    a = policy.eval_batch(pts)
    b = reference.eval_batch(pts, fallback="qp")
    ok = ~(np.any(np.isnan(a), axis=1) | np.any(np.isnan(b), axis=1))
    if not ok.any():
        raise ValueError(f"none of the {pts.shape[0]} states evaluated on both policies")
    return float(np.max(np.linalg.norm(a[ok] - b[ok], axis=1)))


_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Pool initializer: limit a worker process to one BLAS thread.

    Forked workers inherit the parent's BLAS thread count, so ``jobs``
    workers run jobs x cores threads on the cores, and the small matrix
    products of MLP training run about twice as slowly. Does nothing when
    no OpenBLAS is loaded or the process map cannot be read.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                return


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as ex:
        return list(ex.map(fn, items))


class _SmoothnessTask:
    """Picklable per-parameter smoothness measurement (one sweep row)."""

    def __init__(self, bench, n_samples, seed):
        self.bench = bench
        self.n_samples = n_samples
        self.seed = seed

    def __call__(self, item):
        kind, param = item
        bench = self.bench
        pts = bench.sample_initial_states(400, seed=self.seed + 17)
        probe = np.array([2.0, 0.5])
        if kind == "barrier":
            expert = bench.barrier_expert(param)
            # the Jacobian transition width scales like sqrt(eta)
            scale = float(np.clip(0.1 * math.sqrt(param), 2e-3, 0.25))
            met = expert_smoothness(expert.jacobian_batch, feature_scale=scale)
            hess = tensor_spectral_norm(barrier_hessian(expert.bp,
                                                        solve_barrier(expert.bp, probe)))
        else:
            expert = bench.randomized_expert(param, n_samples=self.n_samples, seed=self.seed)
            h_fd = max(param / 20.0, 1e-4)
            met = expert_smoothness(lambda X: expert.jacobian_batch(X, h=h_fd),
                                    feature_scale=param)
            hess = float("nan")
        sup_error = _sup_error(expert, bench.table, pts)
        # the share of the sup-error samples outside the polygon, from their one projection
        projected = (float(1.0 - bench.projector.last_inside.mean()) if kind == "randomized"
                     else float("nan"))
        return {"kind": kind, "param": param, "L0_max": met["L0_max"],
                "L1_max": met["L1_max"], "sup_error": sup_error,
                "hessian_norm": hess, "projected_fraction": projected}


def smoothness_sweep(bench: Workbench, eta_grid, sigma_grid,
                     n_samples: int = 1500, seed: int = 0, jobs: int = 1) -> list:
    """L0/L1/sup-error rows for barrier and randomized experts.

    Barrier rows also carry the analytic solution-Hessian norm at a probe
    state. Both families use the same adaptive slice protocol, so the
    numbers are comparable across expert kinds.
    """
    tasks = [("barrier", float(e)) for e in eta_grid] + \
            [("randomized", float(s)) for s in sigma_grid]
    return _pmap(_SmoothnessTask(bench, n_samples, seed), tasks, jobs)


def matched_levels(rows: list, n_levels: int = 5) -> list:
    """Pair (eta, sigma) at equal Jacobian-variation smoothness.

    Interpolates log sigma against log L1 over the monotone part of the
    randomized sweep and evaluates it at the barrier etas whose L1 falls
    inside the overlap. Returns [(eta, sigma, L1), ...], increasing eta.
    """
    bar = sorted([(r["param"], r["L1_max"]) for r in rows if r["kind"] == "barrier"])
    ran = sorted([(r["param"], r["L1_max"]) for r in rows if r["kind"] == "randomized"])
    if not bar or not ran:
        raise ValueError("need both barrier and randomized sweep rows")
    rs, rl = zip(*ran)
    rs, rl = np.array(rs), np.array(rl)
    order = np.argsort(rl)
    lo, hi = rl.min(), rl.max()
    out = []
    for eta, l1 in bar:
        if not (lo <= l1 <= hi):
            continue
        sigma = float(np.exp(np.interp(np.log(l1), np.log(rl[order]), np.log(rs[order]))))
        out.append((float(eta), sigma, float(l1)))
    if not out:
        raise ValueError("no overlapping smoothness levels between the expert families")
    if len(out) > n_levels:
        idx = np.linspace(0, len(out) - 1, n_levels).round().astype(int)
        out = [out[i] for i in idx]
    return out


# --- bound sweep -------------------------------------------------------------

def bounds_sweep(bench: Workbench, eta_grid, n_states: int = 50, seed: int = 0,
                 with_hessian: bool = True) -> tuple:
    """Evaluate every bound calculator against solver measurements.

    The states kept are the first n_states sampled ones whose Chebyshev
    radius is at least 5e-2. Each eta solves them as one stack
    (``solve_barrier_batch``); rows and reports come state by state, and
    the first state with no solution raises its error.

    Returns (rows, reports, skipped) where skipped lists (eta, reason) for
    grid entries the barrier problem is undefined at (eta <= 0).
    """
    skipped = [(float(e), "barrier weight must be positive") for e in eta_grid if e <= 0]
    eta_grid = [float(e) for e in eta_grid if e > 0]
    qp = bench.qp
    sigmas = [p.sigma for p in bench.table.collection.pieces]
    L, C = gain_constants(qp, sigmas)
    states = bench.sample_initial_states(4 * n_states, seed=seed)
    row_ok = np.linalg.norm(qp.G, axis=1) >= 1.0 - 1e-12
    from .explicit import solve_qp

    kept = []  # (x0, radii, u_star)
    for x0 in states:
        if len(kept) >= n_states:
            break
        try:
            rad = feasible_radii(qp, x0)
            if rad.r < 5e-2:  # decides which sampled states the sweep keeps
                continue
            kept.append((x0, rad, solve_qp(qp, x0).u_star))
        except InfeasibleError:
            continue
    solves = []  # (bp, solutions, Jacobians, Hessians) per eta, each one stack over the kept states
    if kept:
        X = np.array([x0 for x0, _, _ in kept])
        for eta in eta_grid:
            bp = make_barrier_problem(qp, eta, outer_radius=bench.outer_radius)
            batch = solve_barrier_batch(bp, X)
            solves.append((bp, batch, *barrier_hessian_batch(bp, batch.phi)))
    rows, reports = [], []
    for i, (x0, rad, u_star) in enumerate(kept):
        for bp, batch, jacs, hessians in solves:
            sol = batch.row(i)
            err = float(np.linalg.norm(sol.u_eta - u_star))
            ctx = {"x0": tuple(np.round(x0, 6)), "eta": bp.eta}
            eb = error_upper(bp)
            reports.append(BoundReport.check("error_upper", err, eb, ctx))
            res_lb = residual_lower_bound(bp, x0, u_star, radii=rad)
            min_phi = float(sol.phi[row_ok].min())
            reports.append(BoundReport.check("residual_floor", res_lb, min_phi, ctx))
            L_q = quadratic_lipschitz(qp, x0, rad.R_center)
            first = first_residual_lower_bound(bp, x0, L_q, radii=rad)
            reports.append(BoundReport.check("first_residual_floor", first,
                                             normalized_min_residual(qp, x0, sol.u_eta), ctx))
            try:
                db = directional_bounds(bp, x0, u_star, radii=rad)
                gap = float(db.a @ (sol.u_eta - u_star))
                reports.append(BoundReport.check("directional_lower", db.lower,
                                                 gap * (1 + 1e-9) + 1e-15, ctx))
                reports.append(BoundReport.check("directional_upper", gap, db.upper, ctx))
                dir_lo, dir_hi = db.lower, db.upper
            except NotApplicableError:
                gap = float("nan")
                dir_lo = dir_hi = float("nan")
            hess_norm = float("nan")
            hess_bound = float("nan")
            if with_hessian:
                hess_norm = tensor_spectral_norm(hessians[i])
                hess_bound = hessian_upper_bound(bp, x0, L, C, u_star=u_star, radii=rad)
                reports.append(BoundReport.check("hessian_upper", hess_norm, hess_bound, ctx))
            rows.append({
                "x0_0": x0[0], "x0_1": x0[1] if qp.d_x > 1 else 0.0, "eta": bp.eta,
                "gap_norm": err, "error_upper": eb, "min_residual": min_phi,
                "residual_floor": res_lb, "first_residual_floor": first,
                "directional_gap": gap, "directional_lower": dir_lo,
                "directional_upper": dir_hi, "jacobian_norm": float(np.linalg.norm(jacs[i], 2)),
                "hessian_norm": hess_norm, "hessian_upper": hess_bound,
                "newton_iters": sol.newton_iters,
            })
    return rows, reports, skipped


# --- imitation ---------------------------------------------------------------

def imitation_run(bench: Workbench, expert, N: int, K: int, train_cfg: TrainConfig,
                  seed: int, n_eval: int = 20, artifact_dir=None, tag: str = "") -> dict:
    """Dataset -> train -> evaluate for one expert and one seed.

    The expert's Jacobian labels (``expert.jacobian_batch``, see
    ``sample_dataset``) are sampled only when something reads them: the
    TaSIL term (``train_cfg.lambda_jac > 0``) or the written dataset. Only
    then does a start whose Jacobian label fails count as rejected. With
    ``artifact_dir`` set, the dataset and the training curve are written
    as CSV files named by ``tag`` (each run owns its own paths).
    """

    def sampler(rng):
        return bench.sample_initial_states(1, int(rng.integers(0, 2 ** 31)))[0]

    labels = train_cfg.lambda_jac > 0.0 or artifact_dir is not None
    ds = sample_dataset(bench.sys, expert, sampler, N=N, K=K, seed=seed,
                        jacobian_fn=expert.jacobian_batch if labels else None)
    cfg = TrainConfig(**{**train_cfg.__dict__, "seed": seed})
    policy, curves = train_imitator(ds, cfg, halfwidths=[bench.state_halfwidth] * bench.qp.d_x)
    if artifact_dir is not None:
        import csv as _csv
        from pathlib import Path

        base = Path(artifact_dir)
        base.mkdir(parents=True, exist_ok=True)
        ds.to_csv(base / f"dataset_{tag}.csv")
        with open(base / f"curve_{tag}.csv", "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["step", "train_loss"])
            for i, v in enumerate(curves["train"]):
                writer.writerow([i, f"{v:.12g}"])
            writer.writerow([])
            writer.writerow(["val_step", "val_loss"])
            for s, v in curves["val"]:
                writer.writerow([int(s), f"{v:.12g}"])
    eval_states = bench.sample_initial_states(n_eval, seed=seed + 10_000)
    res = imitation_error(bench.sys, expert, policy, eval_states, K)
    finite = np.isfinite(res["max_traj_error"])
    mean_err = float(np.mean(res["max_traj_error"][finite])) if finite.any() else float("inf")
    return {
        "mean_traj_error": mean_err,
        "max_traj_error": float(np.max(res["max_traj_error"])),
        "sup_policy_error": res["sup_policy_error"],
        "final_train_loss": float(curves["train"][-1]) if curves["train"].size else float("nan"),
        "n_eval_failures": int((~finite).sum()),
    }


class _ImitationTask:
    """Picklable (expert kind, level, seed) -> result row."""

    def __init__(self, bench, N, K, train_cfg, n_samples, n_eval, artifact_dir=None):
        self.bench = bench
        self.N, self.K = N, K
        self.train_cfg = train_cfg
        self.n_samples = n_samples
        self.n_eval = n_eval
        self.artifact_dir = artifact_dir

    def __call__(self, item):
        kind, param, l1, seed = item
        if kind == "barrier":
            expert = self.bench.barrier_expert(param)
        else:
            expert = self.bench.randomized_expert(param, n_samples=self.n_samples,
                                                  seed=seed)
        out = imitation_run(self.bench, expert, self.N, self.K, self.train_cfg, seed,
                            n_eval=self.n_eval, artifact_dir=self.artifact_dir,
                            tag=f"{kind}_{param:g}_s{seed}")
        return {"expert": kind, "param": param, "matched_L1": l1, "seed": seed, **out}


def imitation_experiment(bench: Workbench, levels: list, N: int, K: int,
                         train_cfg: TrainConfig, seeds, n_samples: int = 800,
                         n_eval: int = 20, jobs: int = 1, artifact_dir=None) -> list:
    """The full comparison: both expert families at matched smoothness levels."""
    tasks = []
    for eta, sigma, l1 in levels:
        for seed in seeds:
            tasks.append(("barrier", float(eta), float(l1), int(seed)))
            tasks.append(("randomized", float(sigma), float(l1), int(seed)))
    return _pmap(_ImitationTask(bench, N, K, train_cfg, n_samples, n_eval, artifact_dir),
                 tasks, jobs)
