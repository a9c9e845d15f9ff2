"""Small linear-algebra helpers with explicit failure detection.

All matrices in this package are tiny (a handful of modes), so the helpers
favour robustness and clarity over asymptotic speed.  Inversions go through
symmetric factorizations with an equilibrated condition-number check instead
of silent pseudo-inverses.
"""

import numpy as np

from .exceptions import IllConditioned

# Repo-wide numerical tolerances.
TOL_PSD = 1e-9        # admissibility slack for covariance-type constraints
TOL_PURE = 1e-9       # purity check on sigma Omega sigma^T = Omega
TOL_SYMPLECTIC = 1e-9
TOL_UNITARY = 1e-9    # u u^dagger = 1 check on mode unitaries
TOL_NORMALISED = 1e-7  # log |c| of a ket triple against its closed-form normalisation
EPS = float(np.finfo(float).eps)
EIG_ROUNDING = 1e3   # eigenvalue rounding of sigma + i Omega, in units of EPS ||sigma||_2
SYMPLECTIC_ROUNDING = 16.0  # rounding of S Omega S^T - Omega, in units of EPS ||S||_2^2
COND_MAX = 1e12       # condition-number cutoff for matrix solves
EPS_REF = 1e-12       # usable floor for reference overlaps


def _equilibrated_cholesky(mat, label):
    """Diagonal scaling followed by a Cholesky factor and conditioning check.

    Symmetric factorization with explicit failure detection: non-positive
    pivots and condition numbers beyond COND_MAX raise instead of silently
    falling back to a pseudo-inverse.  The equilibration lets benign scale
    disparities (a squeezed covariance's e^{2r} and e^{-2r} diagonal) pass.
    """
    mat = np.asarray(mat, dtype=float)
    d = np.sqrt(np.clip(np.diag(mat), 1e-300, None))
    scaled = mat / d[:, None] / d[None, :]
    cond = np.linalg.cond(scaled)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise IllConditioned(f"{label} is ill-conditioned (cond={cond:.3g})")
    try:
        factor = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"{label} is not positive definite: {exc}") from exc
    return factor, d


def _cholesky_solve(factor, rhs):
    """x with L L^T x = rhs for the lower Cholesky factor L."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def solve_psd(mat, rhs, label="matrix"):
    """Solve ``mat @ x = rhs`` for symmetric positive-definite ``mat``."""
    factor, d = _equilibrated_cholesky(mat, label)
    rhs = np.asarray(rhs)
    if rhs.ndim == 1:
        return _cholesky_solve(factor, rhs / d) / d
    return _cholesky_solve(factor, rhs / d[:, None]) / d[:, None]


def inv_psd(mat, label="matrix"):
    """Inverse of a symmetric positive-definite matrix with conditioning check."""
    factor, d = _equilibrated_cholesky(mat, label)
    inv_scaled = _cholesky_solve(factor, np.eye(d.shape[0]))
    return inv_scaled / d[:, None] / d[None, :]


def solve_complex(mat, rhs, label="matrix"):
    """Solve with a general complex matrix, guarding against near-singularity."""
    mat = np.asarray(mat, dtype=complex)
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise IllConditioned(f"{label} is ill-conditioned (cond={cond:.3g})")
    return np.linalg.solve(mat, rhs)


def min_eig_hermitian(mat):
    """Smallest eigenvalue of a Hermitian matrix (used by admissibility checks)."""
    return float(np.linalg.eigvalsh(np.asarray(mat)).min())
