"""Symplectic linear algebra on quadrature space.

Quadratures are ordered (q1, p1, ..., qn, pn) with [q, p] = i, so the
symplectic form is block-diagonal in 2x2 blocks [[0, 1], [-1, 0]].
"""

import numpy as np

from ._linalg import EPS, SYMPLECTIC_ROUNDING, TOL_SYMPLECTIC, TOL_UNITARY


def omega(n: int) -> np.ndarray:
    """Symplectic form for n modes in interleaved ordering."""
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k, 2 * k + 1] = 1.0
        out[2 * k + 1, 2 * k] = -1.0
    return out


def is_symplectic(mat: np.ndarray) -> bool:
    """S Omega S^T = Omega, each entry to TOL_SYMPLECTIC + SYMPLECTIC_ROUNDING EPS ||S||_2^2.

    A product of gate matrices or a channel's dilation is symplectic to a rounding
    of order EPS ||S||_2^2 in every entry of the residual: an entry that cancels,
    such as cosh r - sinh r cos(theta) of a squeeze near its axis, keeps the error
    EPS cosh r.  Over 10,500 such S (squeezes and O Z O products to r = 14, gate
    chains, channel dilations) the residual reached 8.1 EPS ||S||_2^2, and 2e7
    EPS (|S||Omega||S|^T)_ij per entry."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        return False
    om = omega(mat.shape[0] // 2)
    bound = TOL_SYMPLECTIC + SYMPLECTIC_ROUNDING * EPS * np.linalg.norm(mat, 2) ** 2
    return bool(np.max(np.abs(mat @ om @ mat.T - om)) <= bound)


def require_symplectic(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if not is_symplectic(mat):
        raise ValueError("matrix is not symplectic within tolerance")
    return mat


def passive_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic matrix realizing the n x n mode unitary ``u``.

    Heisenberg convention: the passive Gaussian unitary with matrix u maps
    a_i -> sum_j u_ij a_j, giving interleaved 2x2 blocks
    [[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]].
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n) or np.max(np.abs(u @ u.conj().T - np.eye(n))) > TOL_UNITARY:
        raise ValueError("input is not unitary within tolerance")
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = out[1::2, 1::2] = u.real
    out[1::2, 0::2] = u.imag
    out[0::2, 1::2] = -u.imag
    return out


def mode_blocks(s: np.ndarray, d: np.ndarray):
    """(M, N, delta) with a -> M a + N a^dagger + delta under the quadrature map (S, d):
    M = [(S_qq + S_pp) + i(S_pq - S_qp)] / 2, N = [(S_qq - S_pp) + i(S_pq + S_qp)] / 2,
    delta = (d_q + i d_p) / sqrt(2); N = 0 and M = u for passive_from_unitary(u)."""
    qq, qp, pq, pp = s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2]
    m = 0.5 * ((qq + pp) + 1j * (pq - qp))
    n = 0.5 * ((qq - pp) + 1j * (pq + qp))
    return m, n, (d[0::2] + 1j * d[1::2]) / np.sqrt(2)


def factor_two_mode_unitary(u: np.ndarray):
    """Factor a 2x2 unitary as diag phases x real beamsplitter x diag phases.

    Returns (chi_left, theta, chi_right) with
    u = diag(e^{i chi_left}) @ [[cos t, sin t], [-sin t, cos t]] @ diag(e^{i chi_right}).
    Used by the Fock oracle to apply arbitrary passive 2-mode unitaries with a
    cached real-beamsplitter eigenbasis.
    """
    u = np.asarray(u, dtype=complex)
    ct = min(abs(u[0, 0]), 1.0)
    theta = float(np.arccos(ct))
    st = np.sin(theta)
    if st < 1e-12:
        chi_l = np.array([np.angle(u[0, 0]), np.angle(u[1, 1])])
        chi_r = np.zeros(2)
        return chi_l, 0.0, chi_r
    if ct < 1e-12:
        chi_l = np.array([np.angle(u[0, 1]), np.angle(-u[1, 0])])
        chi_r = np.zeros(2)
        return chi_l, np.pi / 2, chi_r
    p00, p01, p10 = np.angle(u[0, 0]), np.angle(u[0, 1]), np.angle(u[1, 0])
    chi1 = 0.0
    chi3 = p00
    chi4 = p01
    chi2 = p10 + np.pi - chi3
    return np.array([chi1, chi2]), theta, np.array([chi3, chi4])
