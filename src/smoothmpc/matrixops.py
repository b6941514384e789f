"""Adjugate/cofactor toolkit and determinant decomposition identities.

These routines serve as independently testable oracles for the barrier
Jacobian theory: zero-padded principal-submatrix operations, the subset
expansion of det(A + Lambda) for a positive diagonal Lambda, the matching
decomposition of (A + Lambda)^{-1} into padded inverses and adjugates, and
the annihilation identities for rank-deficient Gram submatrices.

Conventions (empty active set): the determinant of the 0x0 submatrix is 1,
and its padded inverse/adjugate are all-zero matrices. This makes the
sigma=0 term of the subset expansion equal prod(lambda_i) and keeps the
inverse decomposition consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qp import FEAS_TOL

__all__ = [
    "adjugate",
    "padded_inverse",
    "padded_adjugate",
    "padded_pinv",
    "submatrix",
    "is_singular_submatrix",
    "det_diag_perturbation",
    "inverse_decomposition",
    "annihilation_checks",
    "rank_one_adjugate_update",
    "all_sigmas",
    "selftest",
    "SingularSubmatrixError",
]

class SingularSubmatrixError(np.linalg.LinAlgError):
    """Principal submatrix selected by sigma is singular."""


def _as_sigma(sigma, n: int) -> np.ndarray:
    s = np.asarray(sigma)
    if s.dtype != bool:
        s = s.astype(int).astype(bool)
    if s.shape != (n,):
        raise ValueError(f"sigma must have length {n}, got shape {s.shape}")
    return s


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transpose of the cofactor matrix) of a square matrix.

    Satisfies adj(M) @ M = det(M) * I, including for singular M. Computed
    by cofactor expansion, which is exact enough at the small sizes used
    here and stays finite where det(M) = 0.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("adjugate requires a square matrix")
    if n == 0:
        return np.zeros((0, 0))
    if n == 1:
        return np.ones((1, 1))
    cof = np.empty((n, n))
    idx = np.arange(n)
    for i in range(n):
        rows = idx[idx != i]
        minor_rows = M[rows]
        for j in range(n):
            cols = idx[idx != j]
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor_rows[:, cols])
    return cof.T


def submatrix(M: np.ndarray, sigma) -> np.ndarray:
    """Principal submatrix of M on the rows/columns where sigma is 1."""
    M = np.asarray(M, dtype=float)
    s = _as_sigma(sigma, M.shape[0])
    return M[np.ix_(s, s)]


def is_singular_submatrix(M: np.ndarray, sigma) -> bool:
    """Whether the vectors v_i, i in sigma, of a Gram matrix M_ij = <v_i, v_j>
    are dependent.

    They count as independent when some order gives each, normalized, a
    squared distance above FEAS_TOL from the span of those before it: the
    test by which the dual QP (``qp.raw_solve_qp``) adds a row to its
    working set, so every working set it returns passes. Removing a vector
    only moves the others away from the span, so such an order exists
    exactly when the vectors whose squared distance from the span of all
    the others, 1 / (C^-1)_ii for the normalized Gram matrix C, exceeds
    FEAS_TOL can be removed, again and again, until none is left. The test
    is invariant to scaling the vectors.
    """
    sub = submatrix(M, sigma)
    diag = np.diagonal(sub)
    if np.any(diag <= 0.0):
        return True
    C = sub / np.sqrt(np.outer(diag, diag))
    while C.shape[0]:
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            return True
        Linv = np.linalg.solve(L, np.eye(C.shape[0]))
        far = 1.0 / np.sum(Linv * Linv, axis=0) > FEAS_TOL
        if not far.any():
            return True
        C = C[np.ix_(~far, ~far)]
    return False


def _pad(block: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    n = sigma.shape[0]
    out = np.zeros((n, n))
    out[np.ix_(sigma, sigma)] = block
    return out


def padded_inverse(M: np.ndarray, sigma) -> np.ndarray:
    """Zero-padded inverse of the principal submatrix [M]_sigma.

    Raises SingularSubmatrixError when ``is_singular_submatrix`` calls the
    submatrix singular. sigma = all-zeros returns the zero matrix.
    """
    M = np.asarray(M, dtype=float)
    s = _as_sigma(sigma, M.shape[0])
    sub = M[np.ix_(s, s)]
    if sub.shape[0] == 0:
        return np.zeros_like(M)
    if is_singular_submatrix(M, s):
        raise SingularSubmatrixError("principal submatrix is singular")
    return _pad(np.linalg.inv(sub), s)


def padded_pinv(M: np.ndarray, sigma) -> np.ndarray:
    """Zero-padded Moore-Penrose pseudoinverse of [M]_sigma."""
    M = np.asarray(M, dtype=float)
    s = _as_sigma(sigma, M.shape[0])
    sub = M[np.ix_(s, s)]
    if sub.shape[0] == 0:
        return np.zeros_like(M)
    return _pad(np.linalg.pinv(sub), s)


def padded_adjugate(M: np.ndarray, sigma) -> np.ndarray:
    """Zero-padded adjugate of the principal submatrix [M]_sigma."""
    M = np.asarray(M, dtype=float)
    s = _as_sigma(sigma, M.shape[0])
    sub = M[np.ix_(s, s)]
    if sub.shape[0] == 0:
        return np.zeros_like(M)
    return _pad(adjugate(sub), s)


def all_sigmas(m: int):
    """Iterate over all binary vectors of length m (lexicographic)."""
    if m > 24:
        raise ValueError(f"refusing to enumerate 2^{m} active sets")
    for bits in range(1 << m):
        yield np.array([(bits >> i) & 1 for i in range(m)], dtype=bool)


def det_diag_perturbation(A: np.ndarray, lam: np.ndarray) -> float:
    """det(A + Diag(lam)) via the principal-submatrix subset expansion.

    Returns sum over sigma of prod(lam_i^(1-sigma_i)) * det([A]_sigma),
    with det of the empty submatrix equal to 1.
    """
    A = np.asarray(A, dtype=float)
    lam = np.asarray(lam, dtype=float)
    m = A.shape[0]
    if lam.shape != (m,):
        raise ValueError("lam must match the matrix size")
    total = 0.0
    for s in all_sigmas(m):
        sub = A[np.ix_(s, s)]
        det_sub = 1.0 if sub.shape[0] == 0 else float(np.linalg.det(sub))
        total += float(np.prod(lam[~s])) * det_sub
    return total


@dataclass(frozen=True)
class InverseDecomposition:
    """Subset decomposition of (A + Diag(lam))^{-1}.

    h_sigma are the scaled determinant weights over nonsingular sigma,
    c_sigma the bare products over singular sigma, h their common
    normalizer (equal to det(A + Lambda)), and reconstruction the
    reassembled inverse.
    """

    h_sigma: dict
    c_sigma: dict
    h: float
    reconstruction: np.ndarray


def inverse_decomposition(A: np.ndarray, lam: np.ndarray) -> InverseDecomposition:
    """Decompose (A + Diag(lam))^{-1} into padded inverses and adjugates.

    A must be positive semidefinite and A + Diag(lam) invertible. Singular
    principal submatrices contribute through their padded adjugates, the
    rest through scaled padded inverses.
    """
    A = np.asarray(A, dtype=float)
    lam = np.asarray(lam, dtype=float)
    m = A.shape[0]
    h_sigma: dict = {}
    c_sigma: dict = {}
    recon = np.zeros_like(A)
    for s in all_sigmas(m):
        key = "".join("1" if b else "0" for b in s)
        c = float(np.prod(lam[~s]))
        if is_singular_submatrix(A, s):
            c_sigma[key] = c
            recon += c * padded_adjugate(A, s)
        else:
            sub = A[np.ix_(s, s)]
            det_sub = 1.0 if sub.shape[0] == 0 else float(np.linalg.det(sub))
            h_sigma[key] = c * det_sub
            recon += c * det_sub * padded_inverse(A, s)
    h = sum(h_sigma.values())
    if h == 0.0:
        raise np.linalg.LinAlgError("A + Diag(lam) is singular")
    return InverseDecomposition(h_sigma=h_sigma, c_sigma=c_sigma, h=h, reconstruction=recon / h)


@dataclass(frozen=True)
class AnnihilationReport:
    applicable: bool
    det_value: float
    max_abs_product: float
    satisfied: bool


def annihilation_checks(G: np.ndarray, H: np.ndarray, sigma) -> AnnihilationReport:
    """Check G^T adj(G H^{-1} G^T)_sigma = 0 when the submatrix is singular.

    For nonsingular [G H^{-1} G^T]_sigma the identity does not apply and
    the report says so. H must be positive definite.
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    s = _as_sigma(sigma, G.shape[0])
    gram = G @ np.linalg.solve(H, G.T)
    if not is_singular_submatrix(gram, s):
        return AnnihilationReport(applicable=False, det_value=float(np.linalg.det(submatrix(gram, s))) if s.any() else 1.0, max_abs_product=0.0, satisfied=True)
    prod = G.T @ padded_adjugate(gram, s)
    max_abs = float(np.max(np.abs(prod))) if prod.size else 0.0
    scale = max(1.0, float(np.max(np.abs(G))))
    return AnnihilationReport(
        applicable=True,
        det_value=float(np.linalg.det(submatrix(gram, s))) if s.any() else 1.0,
        max_abs_product=max_abs,
        satisfied=max_abs <= 1e-9 * scale,
    )


def rank_one_adjugate_update(A: np.ndarray, lam: float, index: int = 0) -> np.ndarray:
    """adj(A + lam * e_i e_i^T) for symmetric A via the block identity.

    Equals adj(A) plus lam times the padded adjugate of the submatrix
    obtained by deleting row/column ``index``.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("rank_one_adjugate_update requires a symmetric matrix")
    keep = np.ones(n, dtype=bool)
    keep[index] = False
    D = A[np.ix_(keep, keep)]
    corr = np.zeros_like(A)
    corr[np.ix_(keep, keep)] = adjugate(D)
    return adjugate(A) + lam * corr


def selftest(rng: np.random.Generator, instances: int) -> tuple:
    """Check every identity above on ``instances`` random instances.

    Seven checks per instance: the adjugate identity, the matrix
    determinant lemma, the rank-one adjugate update, the subset expansion
    of det(A + Lambda), the inverse decomposition, and the annihilation
    identities for a rank-deficient Gram matrix and for a singular active
    set. Returns (checks run, [(check name, instance), ...] failures).
    """
    checks = 0
    failures = []

    def fail_if(failed, name, i):
        nonlocal checks
        checks += 1
        if failed:
            failures.append((name, i))

    for i in range(instances):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        scale = max(1.0, abs(np.linalg.det(M)))
        fail_if(np.abs(adjugate(M) @ M - np.linalg.det(M) * np.eye(n)).max() > 1e-8 * scale,
                "adjugate", i)
        u, vv = rng.standard_normal(n), rng.standard_normal(n)
        lhs = np.linalg.det(M + np.outer(u, vv))
        fail_if(abs(lhs - (np.linalg.det(M) + vv @ adjugate(M) @ u)) > 1e-8 * max(1.0, abs(lhs)),
                "det_lemma", i)
        S = rng.standard_normal((n, n))
        S = S + S.T
        lam = float(rng.uniform(-2, 2))
        idx = int(rng.integers(0, n))
        e = np.zeros(n)
        e[idx] = 1.0
        direct = adjugate(S + lam * np.outer(e, e))
        got = rank_one_adjugate_update(S, lam, idx)
        fail_if(np.abs(got - direct).max() > 1e-9 * max(1.0, np.abs(direct).max()),
                "rank_one", i)
        k = int(rng.integers(1, 5))
        Lr = rng.standard_normal((k, int(rng.integers(1, k + 1))))
        A = Lr @ Lr.T
        lamv = rng.uniform(0.1, 2.0, size=k)
        det_direct = np.linalg.det(A + np.diag(lamv))
        fail_if(abs(det_diag_perturbation(A, lamv) - det_direct) > 1e-8 * max(1.0, abs(det_direct)),
                "det_expansion", i)
        dec = inverse_decomposition(A, lamv)
        direct_inv = np.linalg.inv(A + np.diag(lamv))
        fail_if(np.abs(dec.reconstruction - direct_inv).max()
                > 1e-8 * max(1.0, np.abs(direct_inv).max()), "inverse_decomposition", i)
        Ldef = rng.standard_normal((k + 1, k))  # rank-deficient Gram matrix
        gram = Ldef @ Ldef.T
        fail_if(np.abs(adjugate(gram) @ Ldef).max() > 1e-9 * max(1.0, np.abs(Ldef).max()),
                "annihilation_gram", i)
        Gd = rng.standard_normal((3, 4))
        Gd = np.vstack([Gd, Gd[0]])  # duplicated constraint row
        rep = annihilation_checks(Gd, np.eye(4), np.array([1, 0, 0, 1], dtype=bool))
        fail_if(rep.applicable and not rep.satisfied, "annihilation_sigma", i)
    return checks, failures
