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
from .matrixops import SingularSubmatrixError, is_singular_submatrix, padded_inverse, padded_pinv
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
    "gain_constants",
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


def solve_qp(qp: CondensedQP, x0: np.ndarray) -> QPSolution:
    """Global minimizer of the condensed QP at state x0.

    Raises InfeasibleError (with a Farkas separating certificate) when the
    input-sequence polytope at x0 is empty.
    """
    x0 = np.asarray(x0, dtype=float)
    b = qp.bounds_rhs(x0)
    sol = raw_solve_qp(qp.H, -(qp.F.T @ x0), qp.G, b)
    return QPSolution(u_star=sol.z, sigma=ActiveSet(sol.working_set),
                      multipliers=sol.multipliers)


def _active_set(qp: CondensedQP, sigma) -> ActiveSet:
    """sigma as an ActiveSet over the m rows of qp, with at most n of them active."""
    if not isinstance(sigma, ActiveSet):
        sigma = ActiveSet(sigma)
    if sigma.m != qp.m:
        raise ValueError("sigma length must equal the number of constraints")
    if sigma.popcount > qp.n:
        raise DegenerateActiveSetError(
            f"active set of size {sigma.popcount} exceeds the {qp.n} inputs")
    return sigma


def gain_for_sigma(qp: CondensedQP, sigma: ActiveSet | np.ndarray,
                   pseudo: bool = False) -> AffinePiece:
    """Affine gains (K_sigma, k_sigma) for a given active set.

    Requires the rows of sigma to be independent (``is_singular_submatrix``);
    with ``pseudo`` the padded pseudoinverse is used instead, matching the
    degenerate-set convention of the gain-variation constant.
    """
    sigma = _active_set(qp, sigma)
    if pseudo:
        Minv = padded_pinv(qp.gram, sigma.sigma)
    else:
        try:
            Minv = padded_inverse(qp.gram, sigma.sigma)
        except SingularSubmatrixError:
            raise DegenerateActiveSetError("singular principal submatrix for sigma") from None
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


def _products(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """X @ A.T, always by gemm: the one product rule of the piece table.

    numpy sends a product with a one-row operand through gemv or a dot
    product, which sum in another order than gemm; such an operand gets a
    second row here. gemm gives a row the same bits whatever the number of
    rows (for inner dimensions as small as d_x), so a state's decisions
    and control are the same alone and inside any batch.
    """
    n, m = X.shape[0], A.shape[0]
    Y = (X[[0, 0]] if n == 1 else X) @ (A[[0, 0]] if m == 1 else A).T
    return Y[:n, :m] if 1 in (n, m) else Y


def _region_mask(region: _PieceRegion, X: np.ndarray) -> np.ndarray:
    # in place: a large batch holds one (N, rows) array, not two
    Y = _products(X, region.A)
    Y -= region.v
    k = region.t.size
    if k == 0:
        return np.ones(X.shape[0], dtype=bool)
    # a state's k row tests, read as one k-byte record, pass when all its bytes are 1
    return (Y <= region.t).view(f"V{k}")[:, 0] == np.ones(k, dtype=bool).view(f"V{k}")[0]


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
    ``method="assign"`` (default, equivalent output) walks the grid in
    order and solves the QP at the first point not yet decided. A new
    active set's region is tested, by its exact primal/dual membership
    test, on the undecided points of the buckets where that test can pass
    (``_BucketGrid`` over the grid's box, as the piece table buckets it),
    and claims those that pass; the solved point joins its region even if
    its own test misses by rounding. An infeasible point's Farkas
    certificate half-plane eliminates the infeasible points it covers in
    bulk. Both methods dedupe by active set and then by rounded gains.
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
    box = (grid.min(axis=0), grid.max(axis=0))
    buckets = _BucketGrid(*box)
    # the grid's points in bucket order, and the number in each bucket
    cells = buckets.cells(grid)
    by_cell = np.argsort(cells, kind="stable")
    per_cell = np.bincount(cells, minlength=buckets.n ** qp.d_x + 1)

    cursor = 0
    while True:
        # every point before the cursor is decided, and so is the cursor's
        cursor += int(np.argmax(status[cursor:] == 0))
        if status[cursor] != 0:
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
            # the unassigned points, in grid order, of the buckets where the test can pass
            todo = by_cell[np.repeat(buckets.candidates(region), per_cell)]
            todo = np.sort(todo[status[todo] == 0])
            hit = todo[_region_mask(region, grid[todo])]
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
                           sigma_count=len(sigma_pieces), box=box)


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


class _BucketGrid:
    """A uniform grid of buckets over a box, and the buckets a region can reach.

    Each of the d axes of [lo, hi] is split into n = round(BUCKET_CELLS **
    (1 / d)) buckets; a one-point axis gets unit-width buckets. ``cells``
    gives each state's bucket, n**d for a state outside the box or not
    finite. ``candidates`` gives the buckets where a region's test can
    pass (bucket n**d, "anywhere", always can), and ``kept_rows`` the rows
    of the region that can fail in those buckets.

    Over a box (centre c, half-widths h) a row's least value is
    c . a - |a| . h - v and its greatest c . a + |a| . h - v. A region is
    ruled out of a bucket when some row's least value exceeds t plus a
    bound on the rounding of that value and of the test (dot products of
    d terms with |x|, |c| + h <= reach). A row is left out of the kept
    rows when its greatest value stays at or below t minus that bound in
    every candidate bucket. Boxes are padded by ``pad`` for the rounding
    of the bucket index in ``cells`` and of the box centres. Blocks of
    f**d buckets are tested first, and only rows that exceed t somewhere
    in the remaining blocks are tested per bucket (dropping a row can only
    add candidates).
    """

    def __init__(self, lo, hi):
        lo, hi = (np.asarray(c, dtype=float) for c in (lo, hi))
        d = lo.size
        n = self.n = max(1, round(BUCKET_CELLS ** (1.0 / d)))
        self.lo = lo
        width = self.width = np.where(hi > lo, (hi - lo) / n, 1.0)
        eps = np.finfo(float).eps
        f = max(1, round(np.sqrt(n)))
        nb = -(-n // f)
        pad = 16 * eps * (n * width + np.abs(lo) + np.abs(lo + n * width))
        self._reach = np.maximum(np.abs(lo), np.abs(lo + n * width)) + f * width
        self._half = 0.5 * width + pad
        self._block_half = 0.5 * f * width + pad

        def centers_of(count, size):
            axes = np.meshgrid(*[np.arange(count)] * d, indexing="ij")
            idx = np.stack([a.ravel() for a in axes], axis=1)
            return idx, lo + (idx + 0.5) * size

        idx, self._centers = centers_of(n, width)
        self._block = np.ravel_multi_index(tuple((idx // f).T), (nb,) * d)
        self._block_centers = centers_of(nb, f * width)[1]

    def cells(self, X: np.ndarray) -> np.ndarray:
        """Bucket index of each row; n**d for rows outside the box or not finite."""
        cells = np.zeros(X.shape[0], dtype=np.intp)
        inside = np.ones(X.shape[0], dtype=bool)
        for j in range(X.shape[1]):
            t = (X[:, j] - self.lo[j]) / self.width[j]
            inside &= (t >= 0) & (t <= self.n)
            with np.errstate(invalid="ignore"):  # a row outside the box is reset below
                cells = cells * self.n + np.minimum(t.astype(np.intp), self.n - 1)
        np.putmask(cells, ~inside, self.n ** X.shape[1])
        return cells

    def _err(self, region: _PieceRegion) -> np.ndarray:
        d = self.lo.size
        return 8 * (d + 1) * np.finfo(float).eps * (np.abs(region.A) @ self._reach
                                                    + np.abs(region.v))

    def candidates(self, region: _PieceRegion) -> np.ndarray:
        """cand[c]: may ``region`` hold a state of bucket c? Length n**d + 1."""
        A, v = region.A, region.v
        absA = np.abs(A)
        t = region.t + self._err(region)
        mid = self._block_centers @ A.T - v
        spread = absA @ self._block_half
        ok = ~np.any(mid - spread > t, axis=1)
        rows = np.any(mid[ok] + spread > t, axis=0)
        near = np.flatnonzero(ok[self._block])
        low = self._centers[near] @ A[rows].T - v[rows] - absA[rows] @ self._half
        cand = np.zeros(self._centers.shape[0] + 1, dtype=bool)
        cand[-1] = True
        cand[near] = ~np.any(low > t[rows], axis=1)
        return cand

    def kept_rows(self, region: _PieceRegion, cand: np.ndarray) -> np.ndarray:
        """The rows of ``region`` that can fail at a state of one of the buckets in ``cand``."""
        high = (self._centers[cand[:-1]] @ region.A.T - region.v
                + np.abs(region.A) @ self._half)
        return np.any(high > region.t - self._err(region), axis=0)


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
    finite get NaN without a test. Every product goes through
    ``_products``, so a state's answer does not depend on its batch.
    """

    def __init__(self, qp: CondensedQP, collection: PieceCollection):
        self.qp = qp
        self.collection = collection
        order = np.argsort(-collection.occupancy, kind="stable")
        self._regions = [_region_data(qp, collection.pieces[i]) for i in order]
        self._buckets = _BucketGrid(*collection.box)
        self._candidates = np.zeros((len(self._regions), self._buckets.n ** qp.d_x + 1), dtype=bool)
        self._reduced = []
        for r, region in enumerate(self._regions):
            self._candidates[r] = self._buckets.candidates(region)
            # in-box states take the reduced tests, states outside the box the full ones
            keep = self._buckets.kept_rows(region, self._candidates[r])
            self._reduced.append(_PieceRegion(piece=region.piece, A=region.A[keep],
                                              v=region.v[keep], t=region.t[keep]))

    def _hits(self, X: np.ndarray):
        """Yield (r, rows): the rows of X whose first region in occupancy order
        is r, in ascending order, and then (-1, rows) for the finite rows
        that no region holds. Each finite row is yielded once, and a row that
        is not finite never. Rows move by ``take`` and ``compress``, which give
        the bits of fancy indexing several times faster."""
        cells = self._buckets.cells(X)
        outside = cells == self._candidates.shape[1] - 1
        far = np.flatnonzero(outside)
        far = far.compress(np.all(np.isfinite(X.take(far, axis=0)), axis=1))
        for todo, tests in ((np.flatnonzero(~outside), self._reduced), (far, self._regions)):
            # each undecided row carries its bucket, and leaves with its region's hits
            ct = cells.take(todo)
            seen = np.bincount(ct, minlength=self._candidates.shape[1]) > 0
            for r in np.flatnonzero(self._candidates[:, seen].any(axis=1)):
                if todo.size == 0:
                    break
                test = self._candidates[r].take(ct)
                rows = todo.compress(test)
                if rows.size == 0:
                    continue
                held = _region_mask(tests[r], X.take(rows, axis=0))
                if held.any():
                    yield r, rows.compress(held)
                    # the rows that stay: those not tested, and those tested but not held
                    np.place(test, test, held)
                    np.logical_not(test, out=test)
                    todo, ct = todo.compress(test), ct.compress(test)
            if todo.size:
                yield -1, todo

    def _locate(self, X: np.ndarray) -> np.ndarray:
        """Occupancy-order index of the first region holding each finite row; -1 for none."""
        which = np.full(X.shape[0], -1, dtype=np.intp)
        for r, rows in self._hits(X):
            which.put(rows, r)
        return which

    def eval_batch(self, X: np.ndarray, fallback: str = "nan") -> np.ndarray:
        """First-input controls for a batch of states, shape (N, d_u).

        ``fallback``: "nan" marks unmatched points, "qp" solves the finite ones exactly.
        """
        if fallback not in ("nan", "qp"):
            raise ValueError("fallback must be 'nan' or 'qp'")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d_u = self.qp.d_u
        out = np.full((X.shape[0], d_u), np.nan)
        for r, rows in self._hits(X):
            if r >= 0:
                piece = self._regions[r].piece
                out[rows] = _products(X.take(rows, axis=0), piece.K[:d_u]) + piece.k[:d_u]
            elif fallback == "qp":
                for i in rows:
                    try:
                        out[i] = solve_qp(self.qp, X[i]).u_star[:d_u]
                    except InfeasibleError:
                        pass
        return out

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """First-input gain rows of the piece active at each row of X, shape (N, d_u, d_x).

        A state outside every discovered region takes the gain of its
        per-point QP's active set; infeasible and non-finite states get NaN.
        At region boundaries this is the first matching piece's gain; the
        law is not differentiable there.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full((X.shape[0], self.qp.d_u, self.qp.d_x), np.nan)
        for r, rows in self._hits(X):
            if r >= 0:
                out[rows] = self._regions[r].piece.K[: self.qp.d_u]
                continue
            for i in rows:
                try:
                    sol = solve_qp(self.qp, X[i])
                except InfeasibleError:
                    continue
                out[i] = gain_for_sigma(self.qp, sol.sigma).K[: self.qp.d_u]
        return out


def enumerate_nonsingular_sigmas(qp: CondensedQP):
    """All sigma of at most n independent rows (``is_singular_submatrix``),
    for m <= MAX_ENUMERATION_M."""
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
    """Gain-variation Lipschitz constant L = max over sigma of ||K_sigma||,
    one sigma at a time (the reference for ``gain_constants``)."""
    best = 0.0
    for s in sigmas:
        piece = gain_for_sigma(qp, s, pseudo=True)
        best = max(best, float(np.linalg.norm(piece.K, 2)))
    return best


def c_constant(qp: CondensedQP, sigmas) -> float:
    """max over sigma of ||2 H^{-1} G^T (G H^{-1} G^T)_sigma^+||, one sigma at
    a time (the reference for ``gain_constants``)."""
    best = 0.0
    for s in sigmas:
        sig = s.sigma if isinstance(s, ActiveSet) else np.asarray(s, dtype=bool)
        best = max(best, float(np.linalg.norm(2.0 * qp.Hinv_GT @ padded_pinv(qp.gram, sig), 2)))
    return best


def gain_constants(qp: CondensedQP, sigmas) -> tuple:
    """(``max_gain_norm``, ``c_constant``) in one pass: each sigma's padded
    pseudoinverse is formed once, and each constant is one batched norm."""
    GHF_P = qp.G @ qp.Hinv_FT - qp.P
    K, C = [], []
    for s in sigmas:
        Minv = padded_pinv(qp.gram, _active_set(qp, s).sigma)
        K.append(np.linalg.solve(qp.H, qp.F.T - qp.G.T @ (Minv @ GHF_P)))
        C.append(2.0 * qp.Hinv_GT @ Minv)
    return tuple(float(np.linalg.norm(np.stack(M), 2, axis=(1, 2)).max()) if M else 0.0
                 for M in (K, C))
