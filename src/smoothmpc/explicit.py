"""Explicit (piecewise-affine) MPC: QP solutions, active-set gains, piece discovery.

The hard-constrained law is u = K_sigma x + k_sigma on the polyhedral
region where the active set sigma holds. Regions are discovered on a
state grid and deduplicated by active set, with (K, k) rounded to 1e-6
as a secondary key so that degenerate boundary ties cannot inflate the
piece count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import CondensedQP
from .errors import DegenerateActiveSetError, InfeasibleError
from .matrixops import is_singular_submatrix, padded_inverse, padded_pinv
from .qp import raw_solve_qp

__all__ = [
    "ActiveSet",
    "AffinePiece",
    "QPSolution",
    "solve_qp",
    "gain_for_sigma",
    "pi_mpc",
    "discover_pieces",
    "PieceCollection",
    "PieceTableEvaluator",
    "state_grid",
    "enumerate_nonsingular_sigmas",
    "max_gain_norm",
    "c_constant",
]

# constraint counted active when residual <= ACTIVE_TOL * (1 + |w_i|)
ACTIVE_TOL = 1e-8
# a region's multipliers count as nonnegative down to -DUAL_TOL
DUAL_TOL = 1e-9
# active-set enumeration (2^m sets) is refused above this many constraints
MAX_ENUMERATION_M = 20
GAIN_ROUND_DECIMALS = 6
# the point-location grid splits each of the d_x axes into
# round(BUCKET_CELLS ** (1 / d_x)) buckets: 64 x 64 in the plane
BUCKET_CELLS = 4096


@dataclass(frozen=True)
class ActiveSet:
    """Indicator of active constraints, sigma in {0,1}^m."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma)
        if s.dtype != bool:
            s = s.astype(int).astype(bool)
        s = np.ascontiguousarray(s)
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]

    @property
    def popcount(self) -> int:
        return int(self.sigma.sum())

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.sigma)

    def __eq__(self, other) -> bool:
        return isinstance(other, ActiveSet) and np.array_equal(self.sigma, other.sigma)

    def __hash__(self) -> int:
        return hash(self.sigma.tobytes())


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece u = K x + k of the explicit law."""

    sigma: ActiveSet
    K: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        K = np.ascontiguousarray(self.K, dtype=float)
        k = np.ascontiguousarray(self.k, dtype=float)
        if not (np.all(np.isfinite(K)) and np.all(np.isfinite(k))):
            raise ValueError("gain contains non-finite entries")
        K.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "k", k)

    def control(self, x: np.ndarray) -> np.ndarray:
        return self.K @ np.asarray(x, dtype=float) + self.k

    def gain_key(self) -> bytes:
        return (np.round(self.K, GAIN_ROUND_DECIMALS).tobytes()
                + np.round(self.k, GAIN_ROUND_DECIMALS).tobytes())


@dataclass(frozen=True)
class QPSolution:
    """Hard-constrained optimizer with KKT data.

    ``sigma`` is the solver's final working set: a maximal linearly
    independent subset of the active constraints (degenerate weakly
    active rows at region boundaries are not included).
    """

    u_star: np.ndarray
    sigma: ActiveSet
    multipliers: np.ndarray
    objective: float


def solve_qp(qp: CondensedQP, x0: np.ndarray) -> QPSolution:
    """Global minimizer of the condensed QP at state x0.

    Raises InfeasibleError (with a Farkas separating certificate) when the
    input-sequence polytope at x0 is empty.
    """
    x0 = np.asarray(x0, dtype=float)
    b = qp.bounds_rhs(x0)
    sol = raw_solve_qp(qp.H, -(qp.F.T @ x0), qp.G, b)
    return QPSolution(u_star=sol.z, sigma=ActiveSet(sol.working_set),
                      multipliers=sol.multipliers, objective=sol.objective)


def gain_for_sigma(qp: CondensedQP, sigma: ActiveSet | np.ndarray,
                   pseudo: bool = False) -> AffinePiece:
    """Affine gains (K_sigma, k_sigma) for a given active set.

    Requires det([G H^{-1} G^T]_sigma) > 0; with ``pseudo`` the padded
    pseudoinverse is used instead, matching the degenerate-set convention
    of the gain-variation constant.
    """
    if not isinstance(sigma, ActiveSet):
        sigma = ActiveSet(sigma)
    if sigma.m != qp.m:
        raise ValueError("sigma length must equal the number of constraints")
    if sigma.popcount > qp.n:
        raise DegenerateActiveSetError(
            f"active set of size {sigma.popcount} exceeds the {qp.n} inputs")
    if pseudo:
        Minv = padded_pinv(qp.gram, sigma.sigma)
    else:
        if is_singular_submatrix(qp.gram, sigma.sigma):
            raise DegenerateActiveSetError("singular principal submatrix for sigma")
        Minv = padded_inverse(qp.gram, sigma.sigma)
    GHF = qp.G @ qp.Hinv_FT
    K = np.linalg.solve(qp.H, qp.F.T - qp.G.T @ (Minv @ (GHF - qp.P)))
    k = np.linalg.solve(qp.H, qp.G.T @ (Minv @ qp.w))
    return AffinePiece(sigma=sigma, K=K, k=k)


def pi_mpc(qp: CondensedQP, x: np.ndarray) -> np.ndarray:
    """Receding-horizon control law: first input block of the QP optimizer."""
    return solve_qp(qp, x).u_star[: qp.d_u]


def state_grid(lo, hi, resolution: int) -> np.ndarray:
    """Uniform inclusive grid over the box [lo, hi], resolution points per axis."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = [np.linspace(lo[j], hi[j], resolution) for j in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class _PieceRegion:
    """The region of a piece as one block of rows x . a - v <= t.

    The primal rows (G K - P) x <= w - G k come first, with tolerance
    ACTIVE_TOL * (1 + |w|); then the multiplier rows lambda(x) >= 0,
    negated, with tolerance DUAL_TOL.
    """

    piece: AffinePiece
    A: np.ndarray
    v: np.ndarray
    t: np.ndarray


def _region_data(qp: CondensedQP, piece: AffinePiece) -> _PieceRegion:
    # lambda(x) = dual_M x + dual_v >= -DUAL_TOL, as -dual_M x - dual_v <= DUAL_TOL
    s = piece.sigma.sigma
    Ms = qp.gram[np.ix_(s, s)]
    dual_M = np.linalg.solve(Ms, (qp.G @ qp.Hinv_FT)[s] - qp.P[s])
    dual_v = -np.linalg.solve(Ms, qp.w[s])
    return _PieceRegion(piece=piece, A=np.vstack([qp.G @ piece.K - qp.P, -dual_M]),
                        v=np.concatenate([qp.w - qp.G @ piece.k, dual_v]),
                        t=np.concatenate([ACTIVE_TOL * (1.0 + np.abs(qp.w)),
                                          np.full(dual_v.size, DUAL_TOL)]))


def _region_mask(region: _PieceRegion, X: np.ndarray) -> np.ndarray:
    # in place: a grid-wide test in discovery holds one (N, rows) array, not two
    Y = X @ region.A.T
    Y -= region.v
    return np.all(Y <= region.t, axis=1)


@dataclass
class PieceCollection:
    """Distinct affine pieces discovered over a grid, with occupancy counts.

    ``pieces``/``occupancy`` are deduplicated by rounded (K, k);
    ``sigma_count`` is the number of distinct active sets beforehand;
    ``box`` is the (lo, hi) corner pair of the grid's bounding box.
    """

    pieces: list
    occupancy: np.ndarray
    n_feasible: int
    n_infeasible: int
    sigma_count: int
    box: tuple

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    def to_csv(self, path) -> None:
        """Piece table: sigma bitstring, row-major K, k, occupancy."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "K_row_major", "k", "occupancy"])
            for piece, occ in zip(self.pieces, self.occupancy):
                writer.writerow([
                    piece.sigma.bitstring(),
                    " ".join(f"{v:.12g}" for v in piece.K.ravel()),
                    " ".join(f"{v:.12g}" for v in piece.k.ravel()),
                    int(occ),
                ])


def _dedupe_by_gain(qp, sigma_pieces: dict):
    """Merge active sets whose rounded gains coincide; keep the dominant sigma."""
    groups: dict = {}
    for _, (piece, occ) in sorted(sigma_pieces.items()):
        groups.setdefault(piece.gain_key(), []).append((piece, occ))
    items = []
    for members in groups.values():
        rep = max(members, key=lambda po: (po[1], po[0].sigma.bitstring()))[0]
        items.append((rep, sum(occ for _, occ in members)))
    items.sort(key=lambda po: (-po[1], po[0].sigma.bitstring()))
    pieces = [po[0] for po in items]
    occupancy = np.array([po[1] for po in items], dtype=int)
    return pieces, occupancy


def discover_pieces(qp: CondensedQP, grid: np.ndarray, method: str = "assign") -> PieceCollection:
    """Enumerate the distinct affine pieces visited by a state grid.

    ``method="per-point"`` solves the QP at every grid point.
    ``method="assign"`` (default, equivalent output) solves one QP per
    undiscovered piece and assigns the remaining grid points by exact
    primal/dual membership tests of the known regions; infeasible points
    are eliminated in bulk through Farkas certificate half-planes. Both
    methods dedupe by active set and then by rounded gains.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != qp.d_x:
        raise ValueError(f"grid must have shape (N, {qp.d_x})")
    if method == "per-point":
        return _discover_per_point(qp, grid)
    if method != "assign":
        raise ValueError("method must be 'assign' or 'per-point'")

    N = grid.shape[0]
    status = np.zeros(N, dtype=np.int8)  # 0 unassigned, 1 assigned, -1 infeasible
    sigma_pieces: dict = {}

    cursor = 0
    while True:
        while cursor < N and status[cursor] != 0:
            cursor += 1
        if cursor >= N:
            break
        x = grid[cursor]
        try:
            sol = solve_qp(qp, x)
        except InfeasibleError as err:
            status[cursor] = -1
            y = err.certificate
            if y is not None:
                here = float(y @ (qp.w + qp.P @ x))
                valid = (here < 0
                         and np.linalg.norm(qp.G.T @ y) <= 1e-7 * max(1.0, np.linalg.norm(y)))
                if valid:
                    # every state with y^T (w + P x) < 0 shares the certificate
                    vals = y @ qp.w + grid @ (qp.P.T @ y)
                    cut = vals < -1e-9 * (1.0 + abs(float(y @ qp.w)))
                    status[(status == 0) & cut] = -1
            continue
        key = sol.sigma.bitstring()
        if key not in sigma_pieces:
            piece = gain_for_sigma(qp, sol.sigma)
            sigma_pieces[key] = [piece, 0]
            region = _region_data(qp, piece)
            todo = status == 0
            mask = _region_mask(region, grid[todo])
            hit = np.flatnonzero(todo)[mask]
            status[hit] = 1
            sigma_pieces[key][1] += hit.size
        if status[cursor] == 0:
            # boundary point whose own region test missed by tolerance
            status[cursor] = 1
            sigma_pieces[key][1] += 1

    n_inf = int((status == -1).sum())
    pieces, occupancy = _dedupe_by_gain(qp, {k: tuple(v) for k, v in sigma_pieces.items()})
    return PieceCollection(pieces=pieces, occupancy=occupancy,
                           n_feasible=N - n_inf, n_infeasible=n_inf,
                           sigma_count=len(sigma_pieces),
                           box=(grid.min(axis=0), grid.max(axis=0)))


def _discover_per_point(qp: CondensedQP, grid: np.ndarray) -> PieceCollection:
    sigma_pieces: dict = {}
    n_inf = 0
    for x in grid:
        try:
            sol = solve_qp(qp, x)
        except InfeasibleError:
            n_inf += 1
            continue
        key = sol.sigma.bitstring()
        if key not in sigma_pieces:
            sigma_pieces[key] = [gain_for_sigma(qp, sol.sigma), 0]
        sigma_pieces[key][1] += 1
    pieces, occupancy = _dedupe_by_gain(qp, {k: tuple(v) for k, v in sigma_pieces.items()})
    return PieceCollection(pieces=pieces, occupancy=occupancy,
                           n_feasible=grid.shape[0] - n_inf, n_infeasible=n_inf,
                           sigma_count=len(sigma_pieces),
                           box=(grid.min(axis=0), grid.max(axis=0)))


def _bucket_candidates(regions: list, lo: np.ndarray, width: np.ndarray, n: int) -> tuple:
    """Candidate regions of each bucket, and the rows each region can fail there.

    Returns (cand, keep). cand[r, c]: may region r hold a state of bucket
    c? Column n**d is "anywhere". keep[r]: the rows of region r that can
    fail at a state of one of its candidate buckets.

    Over a box (centre c, half-widths h) a row's least value is
    c . a - |a| . h - v and its greatest c . a + |a| . h - v. Region r is
    ruled out of a bucket when some row's least value exceeds t plus a
    bound on the rounding of that value and of the test (dot products of
    d_x terms with |x|, |c| + h <= reach). A row is left out of keep when
    its greatest value stays at or below t minus that bound in every
    candidate bucket. Boxes are padded by ``pad`` for the rounding of the
    bucket index in ``PieceTableEvaluator._cells`` and of the box centres.
    Blocks of f**d buckets are tested first, and only rows that exceed t
    somewhere in the remaining blocks are tested per bucket (dropping a
    row can only add candidates).
    """
    d = lo.size
    eps = np.finfo(float).eps
    f = max(1, round(np.sqrt(n)))
    nb = -(-n // f)
    pad = 16 * eps * (n * width + np.abs(lo) + np.abs(lo + n * width))
    reach = np.maximum(np.abs(lo), np.abs(lo + n * width)) + f * width

    def centers_of(count, size):
        axes = np.meshgrid(*[np.arange(count)] * d, indexing="ij")
        idx = np.stack([a.ravel() for a in axes], axis=1)
        return idx, lo + (idx + 0.5) * size

    idx, centers = centers_of(n, width)
    block = np.ravel_multi_index(tuple((idx // f).T), (nb,) * d)
    _, block_centers = centers_of(nb, f * width)
    cand = np.zeros((len(regions), n ** d + 1), dtype=bool)
    cand[:, -1] = True
    keep = []
    for r, region in enumerate(regions):
        A, v = region.A, region.v
        absA = np.abs(A)
        err = 8 * (d + 1) * eps * (absA @ reach + np.abs(v))
        t = region.t + err
        mid = block_centers @ A.T - v
        spread = absA @ (0.5 * f * width + pad)
        ok = ~np.any(mid - spread > t, axis=1)
        rows = np.any(mid[ok] + spread > t, axis=0)
        near = np.flatnonzero(ok[block])
        low = centers[near] @ A[rows].T - v[rows] - absA[rows] @ (0.5 * width + pad)
        cand[r, near] = ~np.any(low > t[rows], axis=1)
        high = centers[near[cand[r, near]]] @ A.T - v + absA @ (0.5 * width + pad)
        keep.append(np.any(high > region.t - err, axis=0))
    return cand, keep


def _reduced_test(region: _PieceRegion, keep: np.ndarray) -> _PieceRegion:
    """``region`` cut down to the rows in ``keep``.

    A block cut to one row from more gets a dropped row back: BLAS rounds
    a one-row product through another kernel, whose last bits can differ
    from the full block's. A dropped row always passes, so this is harmless.
    """
    keep = keep.copy()
    if keep.sum() == 1 and keep.size > 1:
        keep[np.argmin(keep)] = True
    return _PieceRegion(piece=region.piece, A=region.A[keep], v=region.v[keep], t=region.t[keep])


def _finite_state(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"state {x} is not finite")
    return x


class PieceTableEvaluator:
    """Fast batched evaluation of the explicit law through a piece table.

    A state's piece is the first region, in occupancy order, whose exact
    primal/dual test it passes. A uniform bucket grid over the discovery
    box lists, per bucket, the regions that can hold a state there (a
    superset, so the first match is the same as a scan over every
    region). An in-box state is tested only on the rows of a region that
    can fail in one of the region's buckets; the others pass there, so the
    decisions are the full test's. States outside the box are tested
    against every region, on all of its rows.
    Unmatched states (outside every discovered region, or infeasible) get
    NaN, or on request the per-point QP solution; states that are not
    finite get NaN without a test.
    """

    def __init__(self, qp: CondensedQP, collection: PieceCollection):
        self.qp = qp
        self.collection = collection
        order = np.argsort(-collection.occupancy, kind="stable")
        self._regions = [_region_data(qp, collection.pieces[i]) for i in order]
        lo, hi = (np.asarray(c, dtype=float) for c in collection.box)
        self._n = max(1, round(BUCKET_CELLS ** (1.0 / qp.d_x)))
        self._lo = lo
        # a one-point grid axis (resolution 1) gets unit-width buckets
        self._width = np.where(hi > lo, (hi - lo) / self._n, 1.0)
        self._candidates, keep = _bucket_candidates(self._regions, lo, self._width, self._n)
        # in-box states take the reduced tests, states outside the box the full ones
        self._reduced = [_reduced_test(region, rows) for region, rows in zip(self._regions, keep)]

    def _cells(self, X: np.ndarray) -> np.ndarray:
        """Bucket index of each row; n**d_x for rows outside the box or not finite."""
        t = (X - self._lo) / self._width
        inside = np.all((t >= 0) & (t <= self._n), axis=1)
        cells = np.full(X.shape[0], self._n ** X.shape[1], dtype=np.intp)
        idx = np.minimum(t[inside].astype(np.intp), self._n - 1)
        cells[inside] = np.ravel_multi_index(tuple(idx.T), (self._n,) * X.shape[1])
        return cells

    def _locate(self, X: np.ndarray) -> np.ndarray:
        """Occupancy-order index of the first region holding each finite row; -1 for none."""
        which = np.full(X.shape[0], -1, dtype=np.intp)
        cells = self._cells(X)
        finite = np.all(np.isfinite(X), axis=1)
        outside = cells == self._candidates.shape[1] - 1
        for todo, tests in ((np.flatnonzero(finite & ~outside), self._reduced),
                            (np.flatnonzero(finite & outside), self._regions)):
            seen = np.bincount(cells[todo], minlength=self._candidates.shape[1]) > 0
            for r in np.flatnonzero(self._candidates[:, seen].any(axis=1)):
                if todo.size == 0:
                    break
                test = todo[self._candidates[r, cells[todo]]]
                if test.size == 0:
                    continue
                hit = test[_region_mask(tests[r], X[test])]
                if hit.size:
                    which[hit] = r
                    todo = todo[which[todo] < 0]
        return which

    def eval_batch(self, X: np.ndarray, fallback: str = "nan") -> np.ndarray:
        """First-input controls for a batch of states, shape (N, d_u).

        ``fallback``: "nan" marks unmatched points, "qp" solves the finite ones exactly.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full((X.shape[0], self.qp.d_u), np.nan)
        which = self._locate(X)
        # one stable sort groups the rows by region, each group in ascending order
        order = np.argsort(which, kind="stable")
        for hit in np.split(order, np.flatnonzero(np.diff(which[order])) + 1):
            if hit.size == 0 or which[hit[0]] < 0:
                continue
            piece = self._regions[which[hit[0]]].piece
            U = X[hit] @ piece.K.T + piece.k
            out[hit] = U[:, : self.qp.d_u]
        if fallback == "qp":
            for i in np.flatnonzero((which < 0) & np.all(np.isfinite(X), axis=1)):
                try:
                    out[i] = solve_qp(self.qp, X[i]).u_star[: self.qp.d_u]
                except InfeasibleError:
                    pass
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The exact law at x: the table's piece, else the per-point QP."""
        x = _finite_state(x)
        u = self.eval_batch(x[None, :], fallback="qp")[0]
        if np.any(np.isnan(u)):
            raise InfeasibleError("state outside the feasible set")
        return u

    def piece_at(self, x: np.ndarray) -> AffinePiece | None:
        """The first discovered piece whose region contains x, if any."""
        r = self._locate(np.asarray(x, dtype=float)[None, :])[0]
        return self._regions[r].piece if r >= 0 else None

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """First-input gain rows of the piece active at each row of X, shape (N, d_u, d_x).

        A state outside every discovered region takes the gain of its
        per-point QP's active set; infeasible and non-finite states get NaN.
        At region boundaries this is the first matching piece's gain; the
        law is not differentiable there.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full((X.shape[0], self.qp.d_u, self.qp.d_x), np.nan)
        which = self._locate(X)
        for r in np.unique(which[which >= 0]):
            out[which == r] = self._regions[r].piece.K[: self.qp.d_u]
        for i in np.flatnonzero((which < 0) & np.all(np.isfinite(X), axis=1)):
            try:
                sol = solve_qp(self.qp, X[i])
            except InfeasibleError:
                continue
            out[i] = gain_for_sigma(self.qp, sol.sigma).K[: self.qp.d_u]
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """``jacobian_batch`` at the finite state x; raises InfeasibleError outside the feasible set."""
        J = self.jacobian_batch(_finite_state(x)[None, :])[0]
        if np.any(np.isnan(J)):
            raise InfeasibleError("state outside the feasible set")
        return J


def enumerate_nonsingular_sigmas(qp: CondensedQP):
    """All sigma with det([G H^{-1} G^T]_sigma) > 0, for m <= MAX_ENUMERATION_M."""
    from .matrixops import all_sigmas

    if qp.m > MAX_ENUMERATION_M:
        raise ValueError(f"refusing to enumerate 2^{qp.m} active sets")
    out = []
    for s in all_sigmas(qp.m):
        if int(s.sum()) > qp.n:
            continue
        if not is_singular_submatrix(qp.gram, s):
            out.append(ActiveSet(s))
    return out


def max_gain_norm(qp: CondensedQP, sigmas) -> float:
    """Gain-variation Lipschitz constant L = max over sigma of ||K_sigma||."""
    best = 0.0
    for s in sigmas:
        piece = gain_for_sigma(qp, s, pseudo=True)
        best = max(best, float(np.linalg.norm(piece.K, 2)))
    return best


def c_constant(qp: CondensedQP, sigmas) -> float:
    """max over sigma of ||2 H^{-1} G^T (G H^{-1} G^T)_sigma^+||."""
    best = 0.0
    for s in sigmas:
        sig = s.sigma if isinstance(s, ActiveSet) else np.asarray(s, dtype=bool)
        best = max(best, float(np.linalg.norm(2.0 * qp.Hinv_GT @ padded_pinv(qp.gram, sig), 2)))
    return best
