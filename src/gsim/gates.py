"""Primitive Gaussian gates, Gaussian channels and all quadrature-space algebra.

One gate vocabulary is shared by the covariance simulator, the holomorphic
(Bargmann) phase backend and the Fock oracle so that all three agree on
conventions:

* ``Displace(mode, alpha)``      -- D(a) = exp(a ad - a* a); mean shift
  sqrt(2)(Re a, Im a).
* ``Squeeze(mode, r, theta)``    -- S(z) = exp((z* a^2 - z ad^2)/2) with
  z = r e^{i theta}; theta = 0 squeezes the q variance by e^{-2r}.
* ``PhaseShift(mode, theta)``    -- exp(i theta ad a); rotates a -> e^{i theta} a.
* ``BeamSplitter(m1, m2, theta, phi)`` -- exp(theta (e^{i phi} ad b - e^{-i phi} a bd));
  theta = pi/4 is balanced.

* ``Symplectic(s, d)``           -- the quadrature map x -> S x + d on the whole
  register: a ``symplectic`` op, or a channel's Stinespring dilation.

Quadratures are ordered (q1, p1, ..., qn, pn) with [q, p] = i, so the
symplectic form is block-diagonal in 2x2 blocks [[0, 1], [-1, 0]].  Every
map on them lives here: each gate's (S, d), the mode blocks (M, N, delta) of
a map, and `GaussianChannel` (X, Y, D) with its Stinespring dilation.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import EIG_ROUNDING, EPS, SYMPLECTIC_ROUNDING, TOL_PSD, TOL_SYMPLECTIC, TOL_UNITARY
from .exceptions import DimensionMismatch, InvariantViolation


@dataclass(frozen=True)
class Displace:
    mode: int
    alpha: complex


@dataclass(frozen=True)
class Squeeze:
    mode: int
    r: float
    theta: float = 0.0


@dataclass(frozen=True)
class PhaseShift:
    mode: int
    theta: float


@dataclass(frozen=True)
class BeamSplitter:
    mode1: int
    mode2: int
    theta: float
    phi: float = 0.0


@dataclass(frozen=True, eq=False)
class Symplectic:
    """Gaussian unitary on the whole register with quadrature map x -> S x + d."""

    s: np.ndarray
    d: np.ndarray


Gate = Displace | Squeeze | PhaseShift | BeamSplitter | Symplectic



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


def squeeze_matrix(r: float, theta: float = 0.0) -> np.ndarray:
    """Single-mode symplectic of S(r e^{i theta}) in Heisenberg convention."""
    c, s = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [c - s * np.cos(theta), -s * np.sin(theta)],
            [-s * np.sin(theta), c + s * np.cos(theta)],
        ]
    )


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def beamsplitter_unitary(theta, phi=0.0) -> np.ndarray:
    """Mode unitary of the beamsplitter: a -> cos(t) a + e^{i p} sin(t) b; with
    array parameters, a (..., 2, 2) stack of them."""
    s = np.sin(theta) * np.exp(1j * phi)
    u = np.empty(np.shape(s) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = np.cos(theta)  # broadcast against phi, which may be the scalar default
    u[..., 0, 1], u[..., 1, 0] = s, -np.conj(s)
    return u


def check_gate_modes(gate: Gate, n: int) -> None:
    """Reject out-of-range (including negative) mode indices."""
    pair = isinstance(gate, BeamSplitter)
    # no mode: a Symplectic gate (its user checks its width) or one of no known kind (TypeError)
    for m in (gate.mode1, gate.mode2) if pair else (getattr(gate, "mode", 0),):
        if m < 0 or m >= n:
            raise ValueError(f"gate {gate!r}: mode index outside 0..{n - 1}")
    if pair and gate.mode1 == gate.mode2:
        raise ValueError("beamsplitter needs two distinct modes")


def gate_symplectic(gate: Gate, n: int):
    """(S, d) pair realizing ``gate`` on an n-mode register."""
    check_gate_modes(gate, n)
    s = np.eye(2 * n)
    d = np.zeros(2 * n)
    if isinstance(gate, Displace):
        d[2 * gate.mode] = np.sqrt(2) * np.real(gate.alpha)
        d[2 * gate.mode + 1] = np.sqrt(2) * np.imag(gate.alpha)
    elif isinstance(gate, Squeeze):
        blk = squeeze_matrix(gate.r, gate.theta)
        s[2 * gate.mode : 2 * gate.mode + 2, 2 * gate.mode : 2 * gate.mode + 2] = blk
    elif isinstance(gate, PhaseShift):
        blk = rotation_matrix(gate.theta)
        s[2 * gate.mode : 2 * gate.mode + 2, 2 * gate.mode : 2 * gate.mode + 2] = blk
    elif isinstance(gate, BeamSplitter):
        u = beamsplitter_unitary(gate.theta, gate.phi)
        full = np.eye(n, dtype=complex)
        full[np.ix_([gate.mode1, gate.mode2], [gate.mode1, gate.mode2])] = u
        s = passive_from_unitary(full)
    elif isinstance(gate, Symplectic):
        s, d = gate.s, gate.d
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return s, d


def program_symplectic(gates, n: int):
    """Compose a gate list (applied left to right) into a single (S, d)."""
    s = np.eye(2 * n)
    d = np.zeros(2 * n)
    for g in gates:
        sg, dg = gate_symplectic(g, n)
        s = sg @ s
        d = sg @ d + dg
    return s, d


def block_diag(x, y) -> np.ndarray:
    """The direct sum x (+) y of two square matrices."""
    n = x.shape[0]
    out = np.zeros((n + y.shape[0],) * 2, dtype=np.result_type(x, y))
    out[:n, :n] = x
    out[n:, n:] = y
    return out


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian CPTP map: mean -> X mean + D, cov -> X cov X^T + Y."""

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.array(self.x, dtype=float))
        object.__setattr__(self, "y", np.array(self.y, dtype=float))
        object.__setattr__(self, "d", np.array(self.d, dtype=float))
        m = 2 * (self.d.size // 2)
        if self.x.shape != (m, m) or self.y.shape != (m, m) or self.d.shape != (m,):
            shapes = (self.x.shape, self.y.shape, self.d.shape)
            raise DimensionMismatch(f"X, Y, D have shapes {shapes}, not ((2n, 2n), (2n, 2n), (2n,))")
        # the checks below read one triangle of Y only
        if np.max(np.abs(self.y - self.y.T), initial=0.0) > TOL_PSD + EPS * np.max(np.abs(self.y), initial=0.0):
            raise ValueError("Y is not symmetric")
        # H = Y + i (Omega - X Omega X^T) is positive semidefinite for a CP channel; its one eigh
        # serves this check and the dilation.  Its eigenvalues carry rounding of order EPS (||H||_2
        # + ||X||_2^2), ||H||_2 the largest |eigenvalue|, as X Omega X^T cancels when X squeezes:
        # one below it reads as zero, allowed negative here and dropped by the dilation
        om = omega(m // 2)
        lam, vec = np.linalg.eigh(self.y + 1j * (om - self.x @ om @ self.x.T))
        rounding = EIG_ROUNDING * EPS * (np.abs(lam).max(initial=0.0) + np.linalg.norm(self.x, 2) ** 2)
        if lam.min() < -rounding:
            raise ValueError("channel violates Y + i Omega >= i X Omega X^T")
        object.__setattr__(self, "_noise", (lam, vec, rounding))

    def dilation(self) -> np.ndarray:
        """Symplectic S of a Stinespring dilation: the channel is S on the n system
        modes and E vacuum environment modes after them, traced out (Caruso et al.,
        NJP 10, 083030 (2008)).  Environment mode j is the column pair (Re L_j,
        -Im L_j) of H = L L^+ over H's eigenvalues above their rounding, so E = rank H.
        Each +mu eigenvector a + ib of i N^T Omega N, N the null space of
        [X | X_E] Omega, completes the rows [X | X_E] with sqrt(2 / mu) (b, a) N^T."""
        lam, vec, rounding = self._noise
        keep = lam > rounding
        n, e = len(self.x) // 2, int(np.count_nonzero(keep))
        lower = vec[:, keep] * np.sqrt(lam[keep])
        rows = np.hstack([self.x, np.stack([lower.real, -lower.imag], -1).reshape(2 * n, 2 * e)])
        null = np.linalg.svd(rows @ omega(n + e))[2][2 * n :].T
        mu, v = np.linalg.eigh(1j * (null.T @ omega(n + e) @ null))
        v = v[:, e:] * np.sqrt(2.0 / mu[e:])
        s = np.vstack([rows, (null @ np.stack([v.imag, v.real], -1).reshape(2 * e, 2 * e)).T])
        if not is_symplectic(s):
            raise InvariantViolation("the completed channel dilation is not symplectic")
        return s
