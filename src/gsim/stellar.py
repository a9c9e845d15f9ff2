"""Holomorphic (Bargmann) backend for phase-exact Gaussian amplitudes.

A pure state is represented by the triple (A, b, c) of its normal-ordered
generating function

    Gamma(g) = c * exp(b^T g + g^T A g / 2),        <g*|psi> = e^{-|g|^2/2} Gamma(g),

with A complex symmetric, spectral radius < 1, and c the vacuum amplitude.
Triples store log c, and every kernel works with it: a term far from the
origin keeps its amplitude although c itself is below double precision.
A triple's arrays may carry a leading axis, A (K,m,m), b (K,m), log c (K,):
a stack of K kets, which every kernel here takes as it is.  Every ket on a
user path starts as `vacuum`: gates (`apply_gate`) and `tensor` make the rest,
and `check_normalised` checks a stack of them against `log_magnitude` at once.
A Gaussian unitary on M modes carries a 2M x 2M triple over (out, in)
variables so that

    <a*|U|b> = exp(-(|a|^2+|b|^2)/2) c_U exp(b_U^T nu + nu^T A_U nu / 2),
    nu = (a, b).

A primitive gate changes any triple in closed form (`apply_gate`).  A Gaussian
unitary is its gate list (`GaussianUnitary`), whose `apply` folds it gate by
gate, in the log domain of c, over a ket or a stack of them: that engine is
the source of truth for phases along circuits.  Overlaps, state application
(the route of a `Symplectic(S, d)` gate, whose triple is closed-form) and
composition are one Gaussian contraction, `_contract`; `program_params` and
`compose` are references.  Coherent amplitudes <xi|G_j> of a stack are one
product of each outcome's monomials with the stack's `AmplitudeTable`.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import counters
from ._linalg import COND_MAX, TOL_NORMALISED
from .exceptions import DimensionMismatch, GsimError, IllConditioned, InvariantViolation
from .gates import BeamSplitter, Displace, PhaseShift, Squeeze, Symplectic, beamsplitter_unitary, check_gate_modes, mode_blocks


# unit roundoff; the overlap and amplitude kernels' relative error per value
# in units of it where their log-domain summands do not cancel (the mpmath
# reference tests measure at most 2e-15 on summands of order one); and the
# error of a log-domain sum in units of u S, S the sum of the moduli of its
# summands: one rounding per addition and per product of a few summands.
# Only `_rounded` reads the two counts: every other module adds up its bounds
UNIT_ROUNDOFF = 2.0**-53
KERNEL_ULPS = 20
LOG_SUM_ULPS = 6


class StellarParams:
    """Triple (A, b, log c): symmetric matrix, linear vector, log of the vacuum
    amplitude; or a stack of K triples when the arrays carry a leading axis."""

    __slots__ = ("a", "b", "log_c")

    def __init__(self, a, b, log_c):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        if isinstance(log_c, np.ndarray) and log_c.ndim:
            self.log_c = log_c.astype(complex, copy=False)
        else:
            self.log_c = complex(log_c)

    def __getitem__(self, k):
        """Triple k of a stack, a sub-stack at an index array, or a stack of one (k = None)."""
        return StellarParams(self.a[k], self.b[k], np.asarray(self.log_c)[k])

    @property
    def modes(self) -> int:
        return self.b.shape[-1]

    @property
    def c(self) -> complex:
        return np.exp(self.log_c)


def pure_state_moments(a, b):
    """(cov, mean) of the pure state with ket triple (A, b, .); inverts pure_state_params.

    Goes through the position wavefunction psi(x) ~ exp(-x^T Z x / 2 + w^T x)
    with Z = X + iY = (1 - A)(1 + A)^{-1} and w = sqrt(2) (1 + A)^{-1} b:
    sigma_qq = X^{-1}, sigma_qp = -X^{-1} Y, sigma_pp = X + Y X^{-1} Y,
    mean_q = X^{-1} Re w and mean_p = Im w - Y mean_q.  A squeezed variance read
    off X^{-1} keeps its full relative precision, which (sigma + 1) - 1 loses.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    inv = np.linalg.inv(np.eye(n) + a)
    z = (np.eye(n) - a) @ inv
    w = np.sqrt(2) * inv @ b
    z = 0.5 * (z + z.T)
    x, y = z.real, z.imag
    x_inv = np.linalg.inv(x)
    cov = np.empty((2 * n, 2 * n))
    cov[0::2, 0::2] = x_inv
    cov[0::2, 1::2] = -x_inv @ y
    cov[1::2, 0::2] = cov[0::2, 1::2].T
    cov[1::2, 1::2] = x + y @ x_inv @ y
    mean = np.empty(2 * n)
    mean[0::2] = x_inv @ w.real
    mean[1::2] = w.imag - y @ mean[0::2]
    return 0.5 * (cov + cov.T), mean


def pure_state_params(cov, mean):
    """(A, b, log |c|) of the pure state with given covariance and mean: the
    closed-form inverse of pure_state_moments.

    With X = sigma_qq^{-1}, Y = -X sigma_qp, Z = X + iY and
    w = X mean_q + i (mean_p + Y mean_q): A = (1 - Z)(1 + Z)^{-1} and
    b = sqrt(2) (1 + Z)^{-1} w.  b is not taken as (1 + A) w / sqrt(2), whose
    factor 1 + A cancels as A -> -1 (8 digits lost at r = 9).  The modulus of
    the vacuum amplitude is fixed by (A, b); its phase is carried separately
    (by the state's reference overlap).  The input is taken to be pure.
    """
    cov = np.asarray(cov, dtype=float)
    mean = np.asarray(mean, dtype=float)
    n = cov.shape[0] // 2
    x = np.linalg.inv(cov[0::2, 0::2])
    y = -x @ cov[0::2, 1::2]
    z = x + 1j * y
    w = x @ mean[0::2] + 1j * (mean[1::2] + y @ mean[0::2])
    inv = np.linalg.inv(np.eye(n) + z)
    a = (np.eye(n) - z) @ inv
    a = 0.5 * (a + a.T)
    b = np.sqrt(2) * inv @ w
    return a, b, log_magnitude(a, b)


def log_magnitude(a, b):
    """log |c| normalising the ket(s) (A, b): log |det(1 - conj(A) A)| / 4 - Re q(b) / 2
    with q(b) = b^T (1 - conj(A) A)^{-1} (conj(b) + conj(A) b); det = 0 raises
    InvariantViolation.  At one mode y = 1 - |a|^2 is the determinant and 1/y the
    inverse, so no factorisation runs."""
    if a.shape[-1] == 1:
        a, b = a[..., 0, 0], b[..., 0]
        y = 1.0 - (a.real * a.real + a.imag * a.imag)
        if np.count_nonzero(y == 0):
            raise InvariantViolation("ket triple is not normalisable: det(1 - conj(A) A) = 0")
        return 0.25 * np.log(np.abs(y)) - 0.5 * (b * ((b.conj() + a.conj() * b) / y)).real
    y = np.eye(a.shape[-1]) - a.conj() @ a
    sign, logdet = np.linalg.slogdet(y)
    if np.count_nonzero(sign == 0):
        raise InvariantViolation("ket triple is not normalisable: det(1 - conj(A) A) = 0")
    rhs = b.conj() + (a.conj() @ b[..., None])[..., 0]
    quad = (b * np.linalg.solve(y, rhs[..., None])[..., 0]).sum(-1).real
    return 0.25 * logdet - 0.5 * quad


def check_normalised(t: StellarParams) -> None:
    """Raise InvariantViolation unless Re log c of each ket in ``t`` (one, or
    a stack) matches `log_magnitude`.  One ulp of A moves that by
    ~1e-16 / (1 - ||A||_2^2), so a failed check against TOL_NORMALISED is
    retried with TOL_NORMALISED / ((1 - ||A||_2)(1 + ||A||_2)) (squeezing
    past r ~ 12); only the few terms that fail the first test are looped over.
    Each side is first allowed 4 u of its modulus for its own rounding; a NaN fails both tests."""
    log_c = np.asarray(t.log_c).real.reshape(-1)
    with np.errstate(invalid="ignore"):  # a non-finite triple gives a NaN err, which fails below
        log_mag = log_magnitude(t.a, t.b).reshape(-1)
        err = abs(log_c - log_mag) - 4 * UNIT_ROUNDOFF * (abs(log_c) + abs(log_mag))
    for p in (~(err <= TOL_NORMALISED)).nonzero()[0]:
        a = t.a.reshape(-1, t.modes, t.modes)[p]
        sigma = float(np.linalg.norm(a, 2)) if np.isfinite(a).all() else np.nan  # the SVD rejects a non-finite A
        if not sigma < 1.0:
            raise InvariantViolation(f"ket triple is not normalisable: ||A||_2 = {sigma:.17g}")
        if not err[p] * (1.0 - sigma) * (1.0 + sigma) <= TOL_NORMALISED:
            raise InvariantViolation(
                "ref_overlap modulus disagrees with the closed-form overlap "
                f"(log |c| {log_c[p]:.6g} vs {log_mag[p]:.6g})"
            )


def vacuum(modes: int, k=None) -> StellarParams:
    """The vacuum ket (0, 0, log c = 0) on ``modes`` modes; a stack of ``k`` of them for an integer k."""
    lead = () if k is None else (k,)
    return StellarParams(np.zeros(lead + (modes, modes)), np.zeros(lead + (modes,)), np.zeros(lead))


def tensor(t1: StellarParams, t2: StellarParams) -> StellarParams:
    """Ket triple of |psi1> (x) |psi2>, the modes of ``t2`` after those of ``t1``:
    (A1 (+) A2, (b1, b2), log c1 + log c2); a stack and a single triple, or two
    stacks, broadcast against each other."""
    m1, lead = t1.modes, np.broadcast_shapes(t1.b.shape[:-1], t2.b.shape[:-1])
    a = np.zeros(lead + (m1 + t2.modes,) * 2, dtype=complex)
    a[..., :m1, :m1], a[..., m1:, m1:] = t1.a, t2.a
    b = np.concatenate([np.broadcast_to(t.b, lead + t.b.shape[-1:]) for t in (t1, t2)], -1)
    return StellarParams(a, b, t1.log_c + t2.log_c)


# ---------------------------------------------------------------------------
# unitary triples


def identity_params(n: int) -> StellarParams:
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = a[n:, :n] = np.eye(n)
    return StellarParams(a, np.zeros(2 * n), 0.0)


def _apply_passive(u, legs, t: StellarParams) -> StellarParams:
    """A passive gate with mode unitary u on the given legs: u (l, l) on every triple
    of a stack, or a (K, l, l) stack of them, one per triple, is embedded once in the
    m x m identity as U (U = u where the legs are the whole register in order), and
    then A -> U A U^T, b -> U b over the whole register."""
    m, full = t.modes, u
    if legs != list(range(m)):
        full = np.zeros(u.shape[:-2] + (m, m), dtype=complex)
        full.reshape(-1, m * m)[:, :: m + 1] = 1.0
        full[..., np.array(legs)[:, None], legs] = u
    return StellarParams(full @ t.a @ np.swapaxes(full, -1, -2), (full @ t.b[..., None])[..., 0], t.log_c)


def apply_gate(gate, t: StellarParams, n: int) -> StellarParams:
    """Phase-exact triple of a primitive gate on the first n legs of ``t`` (a
    ket, the out legs of a unitary, or a stack of either), in closed form
    (Miatto and Quesada, Quantum 4, 366 (2020)); a_k is row k of A:

    * Displace(delta): b += delta e_k - conj(delta) a_k,
      log c += -|delta|^2/2 - b_k conj(delta) + A_kk conj(delta)^2/2;
    * PhaseShift, BeamSplitter: A -> U A U^T, b -> U b on the touched legs
      (a PhaseShift scales row and column k of A and b_k; a BeamSplitter's u is
      embedded in the identity of the whole register, see `_apply_passive`);
    * Symplectic(S, d): `apply_to_state` of `symplectic_params(S, d)`, on kets only;
    * Squeeze(r, theta): s = tanh r e^{-i theta}, den = 1 - s A_kk, C = sech r
      on leg k; A -> C (A + s/den a_k a_k^T) C - tanh r e^{i theta} e_k e_k^T,
      b -> C (b + s b_k/den a_k), log c += -log(cosh r)/2 - log(den)/2
      + s b_k^2/(2 den).  Its kernel Y = 1 - s e_k a_k^T, with eigenvalues den
      and 1, keeps the checks of apply_to_state over the whole stack
      (`_checked_kernel`, label "squeeze kernel").  On a one-leg ket
      A + s/den A^2 = A/den, so A -> sech^2 r A/den - tanh r e^{i theta} and
      b -> sech r b/den; there Y = den, whose cond is infinite exactly at den = 0.
      A screen runs first.  By Sherman-Morrison Y^{-1} = 1 + s e_k a_k^T / den,
      and |s| < 1 with ||a_k|| <= ||A||_2 <= 1 (a ket, or a unitary's triple)
      give cond(Y) <= 2 (1 + 1/|den|); so a stack with Re den > 4 / COND_MAX
      (> 0 at one leg) everywhere passes both checks, with room for rounding, as
      |den| >= Re den; only the other stacks build Y and check it.

    On a stack, every parameter of a Displace, Squeeze, PhaseShift or
    BeamSplitter may be an array with one value per triple.
    """
    check_gate_modes(gate, n)
    if t.modes < n:
        raise DimensionMismatch("gate register is wider than the triple")
    if isinstance(gate, PhaseShift):
        # diagonal U = e^{i theta} on leg k: row k, column k and b_k pick up the phase
        k, ph = gate.mode, np.exp(1j * np.asarray(gate.theta))
        a, b = t.a.copy(), t.b.copy()
        a.T[:, k] *= ph
        a.T[k] *= ph
        b.T[k] *= ph
        return StellarParams(a, b, t.log_c)
    if isinstance(gate, BeamSplitter):
        return _apply_passive(beamsplitter_unitary(gate.theta, gate.phi), [gate.mode1, gate.mode2], t)
    if isinstance(gate, Symplectic):
        return apply_to_state(symplectic_params(gate.s, gate.d), t)
    # row a_k; indexing through .T puts the stack axis last, so one triple's
    # A_kk and b_k are numpy scalars, not slower 0-d arrays
    k = gate.mode
    row = t.a[..., k, :]
    akk, bk = row.T[k], t.b.T[k]
    if isinstance(gate, Displace):
        d = gate.alpha
        dc = np.conj(d)
        b = t.b - (dc * t.a.T[k]).T
        b.T[k] += d
        log_c = -0.5 * abs(d) ** 2 - bk * dc + 0.5 * akk * dc**2
        return StellarParams(t.a, b, t.log_c + log_c)
    if not isinstance(gate, Squeeze):
        raise TypeError(f"unknown gate {gate!r}")
    tr, ph = np.tanh(gate.r), np.exp(1j * gate.theta)
    s = tr * np.conj(ph)
    den = 1.0 - s * akk
    # the screen of the docstring: only a stack that it does not clear runs the exact checks
    m = t.modes
    if np.count_nonzero(den.real > (0.0 if m == 1 else 4.0 / COND_MAX)) < den.size:
        with np.errstate(invalid="ignore"):  # a non-finite Y fails the check
            y = np.reshape(den, -1) if m == 1 else np.eye(m) - (s * (np.eye(m)[k, :, None] * row[..., None, :]).T).T
        _checked_kernel(y, "squeeze kernel")
    f = s / den
    fb = f * bk
    cosh = np.cosh(gate.r)
    sech = 1.0 / cosh
    log_c = -0.5 * np.log(cosh) - _half_log(den) + 0.5 * fb * bk
    if m == 1:  # A + f A^2 = A / den and b + f A b = b / den
        a, b = sech * sech * akk / den - tr * ph, sech * bk / den
        return StellarParams(a[..., None, None], b[..., None], t.log_c + log_c)
    a = t.a + (f * (row[..., :, None] * row[..., None, :]).T).T
    b = t.b + (fb * row.T).T
    # C = sech r scales row and column k of A and b_k
    a.T[:, k] *= sech
    a.T[k] *= sech
    b.T[k] *= sech
    a[..., k, k] -= tr * ph
    return StellarParams(a, b, t.log_c + log_c)


@dataclass(frozen=True)
class GaussianUnitary:
    """Gaussian unitary on n modes as its gate list, applied left to right."""

    gates: tuple
    n: int

    @classmethod
    def from_gates(cls, gates, n: int) -> "GaussianUnitary":
        """Phase-exact unitary of a gate list applied left to right."""
        gates = tuple(gates)
        for g in gates:
            check_gate_modes(g, n)
        return cls(gates, n)

    def apply(self, t: StellarParams) -> StellarParams:
        """Ket triple (or stack) after this unitary: each gate updates it in
        closed form (`apply_gate`), so chains of arbitrarily many
        operations keep a consistent global phase, and log c keeps a term that
        passes far from the origin mid-chain."""
        if t.modes != self.n:
            raise DimensionMismatch("unitary and state mode counts disagree")
        for gate in self.gates:
            t = apply_gate(gate, t, self.n)
        return t


def gate_params(gate, n: int) -> StellarParams:
    """Unitary triple of a primitive gate embedded in an n-mode register."""
    return apply_gate(gate, identity_params(n), n)


def symplectic_params(s, d) -> StellarParams:
    """Unitary triple of the quadrature map (S, d) in closed form (Miatto and Quesada,
    Quantum 4, 366 (2020)).  With the `mode_blocks` (M, N, delta) of (S, d), those of
    (S^{-1}, -S^{-1} d) are M_i = M^+, N_i = -N^T, delta_i = -(M_i delta + N_i conj(delta)),
    and B = -C N_i, C = M_i^{-1}, D = conj(N_i) C, b = (-C delta_i, conj(-M^{-1} delta)),
    log c = -log|det M_i|/2 - |delta_i|^2/2 + delta_i^T D delta_i/2: 0 for a passive S
    with d = 0, as for its gates (log_magnitude(B, b_out) loses digits as ||B||_2 -> 1)."""
    m, n, delta = mode_blocks(s, d)
    mi, ni = m.conj().T, -n.T
    di = -(mi @ delta + ni @ delta.conj())
    c = np.linalg.inv(mi)
    a = np.block([[-c @ ni, c], [c.T, ni.conj() @ c]])
    b = np.concatenate([-c @ di, np.conj(-np.linalg.solve(m, delta))])
    log_c = -0.5 * np.linalg.slogdet(mi)[1] - 0.5 * np.vdot(di, di).real + 0.5 * di @ ni.conj() @ c @ di
    return StellarParams(a, b, log_c)


def _half_log(z, modulus=None):
    """Principal log(z)/2 from real vector loops (numpy's complex log calls libm's clog per value):
    arctan2(y, x), and log |z| as log(modulus), or else as clog forms it, log1p((x - 1)(x + 1) + y^2)/2
    for |log |z|| < 1/2, whose relative precision |z|'s rounding would cost (the overlap kernel's bound covers that)."""
    x, y = z.real, z.imag
    out = np.empty(z.shape, dtype=complex)
    re = out.real
    np.log(np.abs(z) if modulus is None else modulus, out=re)
    if modulus is None and (count := np.count_nonzero(near := abs(re) < 0.5)):
        if count == near.size:  # every |z| near 1, where (x - 1)(x + 1) + y^2 is finite and above -1
            np.multiply(np.log1p((x - 1.0) * (x + 1.0) + y * y), 0.5, out=re)
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # copyto drops entries far from |z| = 1
                np.copyto(re, 0.5 * np.log1p((x - 1.0) * (x + 1.0) + y * y), where=near)
    np.arctan2(y, x, out=out.imag)
    out *= 0.5
    return out


def _checked_kernel(y, label: str):
    """(s_max, s_min, log det(Y)/2) of kernels Y: a (P,) array of one-mode ones, y its own singular value |y| and
    eigenvalue (no LAPACK call), or (..., m, m) ones, finite, through svd and eigvals.  IllConditioned under ``label``
    for cond_2(Y) >= COND_MAX, a singular Y (cond inf) or a non-finite one (cond nan); then GsimError for an
    eigenvalue off the open right half-plane, where det(Y)^{-1/2}'s principal branch is continuous."""
    if y.ndim > 1 and np.count_nonzero(~np.isfinite(y)):
        raise IllConditioned(f"{label} is ill-conditioned (cond=nan)")
    sv = np.abs(y)[:, None] if y.ndim == 1 else np.linalg.svd(y, compute_uv=False)
    s_max, s_min = sv[..., 0], sv[..., -1]
    if np.count_nonzero(~(s_max < COND_MAX * s_min)):
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(s_min == 0, np.inf, s_max / s_min)
        raise IllConditioned(f"{label} is ill-conditioned (cond={np.max(cond):.3g})")
    lam = y if y.ndim == 1 else np.linalg.eigvals(y)
    if np.count_nonzero(lam.real <= 0):
        raise GsimError(f"{label} has eigenvalues off the right half-plane")
    return s_max, s_min, _half_log(y, s_max) if y.ndim == 1 else _half_log(lam).sum(-1)


def _contract(a1, b1, a2, b2, k: int, label: str):
    """Integrate the last k legs of F1 = (A1, b1), read at conj(z), against the first k
    legs of F2 = (A2, b2), for one pair or broadcasting stacks.  With P, Q the contracted
    diagonal blocks of A1, A2, p, q those entries of b1, b2, Y = 1 - P Q and Yi = Y^{-1}:

        int d^2z/pi^k e^{-|z|^2 + conj(z)^T P conj(z)/2 + z^T Q z/2 + p^T conj(z) + q^T z}
            = det(Y)^{-1/2} exp(q^T Yi p + q^T Yi P q/2 + p^T Yi^T Q p/2).

    Outer legs x of F1 and y of F2 enter as p + X x and q + W y (X, W: the contracted rows
    of A1, A2 off those blocks); as Yi P and Yi^T Q are symmetric, their triple has
    A_xx = A1_xx + X^T Yi^T Q X, A_xy = X^T Yi^T W, A_yy = A2_yy + W^T Yi P W,
    b_x = b1_x + X^T Yi^T (q + Q p) and b_y = b2_y + W^T Yi (p + P q).  Y is checked once
    with the caller's label: IllConditioned for cond_2(Y) >= COND_MAX, then GsimError for an
    eigenvalue off the open right half-plane, where det(Y)^{-1/2}'s principal branch is
    continuous (`_checked_kernel`).  Returns the outer (A, b) ((None, None) without outer
    legs), the largest and least singular values (s_max, s_min) of Y, and the log-domain
    summands (log det(Y)/2, q^T Yi p, q^T Yi P q/2, p^T Yi^T Q p/2); callers add them in
    that order.
    """
    nx = a1.shape[-1] - k
    pm, qm = a1[..., nx:, nx:], a2[..., :k, :k]
    p, q = b1[..., nx:, None], b2[..., :k, None]
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite Y fails the check
        y = np.eye(k) - pm @ qm
    s_max, s_min, log_det = _checked_kernel(y, label)
    yi = np.linalg.inv(y)
    qt_yi = np.swapaxes(q, -1, -2) @ yi
    pq, qp = pm @ q, qm @ p
    t1, t2, t3 = qt_yi @ p, 0.5 * qt_yi @ pq, 0.5 * np.swapaxes(yi @ p, -1, -2) @ qp
    terms = (log_det, t1[..., 0, 0], t2[..., 0, 0], t3[..., 0, 0])
    if nx == 0 and a2.shape[-1] == k:
        return None, None, (s_max, s_min), terms
    x, w = a1[..., nx:, :nx], a2[..., :k, k:]
    xt_yit, wt_yi = np.swapaxes(yi @ x, -1, -2), np.swapaxes(w, -1, -2) @ yi
    a_xy = xt_yit @ w
    a = np.block([[a1[..., :nx, :nx] + xt_yit @ qm @ x, a_xy], [np.swapaxes(a_xy, -1, -2), a2[..., k:, k:] + wt_yi @ pm @ w]])
    b = np.concatenate([b1[..., :nx] + (xt_yit @ (q + qp))[..., 0], b2[..., k:] + (wt_yi @ (p + pq))[..., 0]], -1)
    return a, b, (s_max, s_min), terms


def compose(t1: StellarParams, t2: StellarParams) -> StellarParams:
    """Triple of the operator product U1 @ U2 (U2 acts first), phase-exact: `_contract`
    of the in legs of U1 with the out legs of U2."""
    if t1.modes != t2.modes:
        raise DimensionMismatch("unitary triples act on different mode counts")
    a, b, _, (log_det, q1, q2, q3) = _contract(t1.a, t1.b, t2.a, t2.b, t1.modes // 2, "composition kernel")
    return StellarParams(a, b, t1.log_c + t2.log_c - log_det + (q1 + q2 + q3))


def program_params(gates, n: int) -> StellarParams:
    """Phase-exact triple of a gate list applied left to right."""
    out = identity_params(n)
    for g in gates:
        out = apply_gate(g, out, n)
    return out


# ---------------------------------------------------------------------------
# evaluation


def apply_to_state(t_u: StellarParams, t_state: StellarParams) -> StellarParams:
    """Ket triple of U|psi>, or of U on each ket of a stack, phase-exact: `_contract` of the
    in legs of U with the ket (||D||_2, ||A||_2 < 1 keep Y = 1 - D A in the right half-plane)."""
    m = t_state.modes
    if t_u.modes != 2 * m:
        raise DimensionMismatch("unitary and state mode counts disagree")
    a, b, _, (log_det, q1, q2, q3) = _contract(t_u.a, t_u.b, t_state.a, t_state.b, m, "state-application kernel")
    return StellarParams(a, b, t_u.log_c + t_state.log_c - log_det + (q1 + q2 + q3))


# pairs per batch of the overlap kernel; bounds its temporaries (about 20
# arrays of P m x m blocks), which for the general Gram of a conditioned
# state, K(K-1)/2 pairs (130816 at rank 512), would otherwise take tens of MB
# at one mode and m^2 times that at m
OVERLAP_CHUNK = 4096


def _rounded(exponents, sums, kernel: str):
    """(exp(exponents), bounds) of log-domain values, ``exponents``
    overwritten, under the caller's np.errstate: where the summands of an
    exponent cancel, its value is off by at most the bound
    u (KERNEL_ULPS + LOG_SUM_ULPS S) |value|, S its entry of ``sums``, the
    sum of the moduli of those summands.  An exponent whose real part
    overflowed to -inf is an underflowed value: 0, with bound 0.  Any other
    value or bound that is not finite (an exponent of +inf or NaN, or an S
    that overflowed) raises IllConditioned naming the kernel."""
    values = np.exp(exponents, out=exponents)
    bounds = np.abs(values)
    bounds *= UNIT_ROUNDOFF * KERNEL_ULPS + UNIT_ROUNDOFF * LOG_SUM_ULPS * sums
    if np.count_nonzero(~np.isfinite(bounds)):
        bounds[values == 0] = 0.0  # 0 times an S that overflowed is NaN
        if np.count_nonzero(~np.isfinite(bounds)):
            raise IllConditioned(f"{kernel}: a value or its rounding bound is not finite")
    return values, bounds


def state_overlaps(t1: StellarParams, t2: StellarParams, i, j):
    """Phase-sensitive <t1[i_p]|t2[j_p]> over P index pairs into two stacks,
    and their rounding bounds (`_rounded`): (values, bounds), each (P,).

    Each pair is `_contract` of the bra (conj(A1), conj(b1)) with the ket over
    all legs, Y = 1 - conj(A1) A2, summed in the log domain so that only a
    genuine underflow of the overlap gives an exact 0; every pair's Y is checked
    there.  Counts P overlap evaluations.  Pairs are gathered OVERLAP_CHUNK at a
    time from the stacks, the bra's conjugated once; at one mode from flat (K,)
    arrays, on which `_contract`'s formula runs here with Yi = 1/y and no LAPACK call
    (`_checked_kernel`'s (P,) form).  A pair's S sums the moduli of its log-domain summands,
    the log-determinant and the quadratic ones weighted by 1 + (1 + s_max) / s_min over the singular values of Y
    (forming Y costs u |conj(A1) A2| and inverting it multiplies that by |Yi|).
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    m, label = t1.modes, "overlap kernel"
    if m != t2.modes or i.shape != j.shape or i.ndim != 1:
        raise DimensionMismatch("overlap stacks or index vectors do not match")
    bra, ket = [np.conj(x) for x in (t1.a, t1.b, t1.log_c)], [t2.a, t2.b, np.asarray(t2.log_c)]
    if m == 1:
        bra, ket = [x.reshape(-1) for x in bra], [x.reshape(-1) for x in ket]
    out, bounds = np.empty(i.shape[0], dtype=complex), np.empty(i.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, i.shape[0], OVERLAP_CHUNK):
            ii, jj = i[s : s + OVERLAP_CHUNK], j[s : s + OVERLAP_CHUNK]
            counters.tally.overlap_evals += ii.shape[0]
            (pm, p, log_p), (qm, q, log_q) = (x[ii] for x in bra), (x[jj] for x in ket)
            if m == 1:
                y = 1.0 - pm * qm
                (s_max, s_min, log_det), yi = _checked_kernel(y, label), 1.0 / y
                qt_yi = q * yi
                q1, q2, q3 = qt_yi * p, 0.5 * qt_yi * (pm * q), 0.5 * (yi * p) * (qm * p)
            else:
                _, _, (s_max, s_min), (log_det, q1, q2, q3) = _contract(pm, p, qm, q, m, label)
            kappa = 1.0 + (1.0 + s_max) / s_min
            terms = np.abs(log_det) + (np.abs(q1) + np.abs(q2) + np.abs(q3))
            exponents = log_p + log_q - log_det + (q1 + q2 + q3)
            sums = np.abs(log_p) + np.abs(log_q) + kappa * terms
            out[s : s + OVERLAP_CHUNK], bounds[s : s + OVERLAP_CHUNK] = _rounded(exponents, sums, label)
    return out, bounds


def overlap_matrix(t1: StellarParams, t2: StellarParams) -> np.ndarray:
    """<t1[i]|t2[j]> for every pair, (K1, K2), values only: one call of state_overlaps."""
    k1, k2 = t1.log_c.shape[0], t2.log_c.shape[0]
    i, j = np.divmod(np.arange(k1 * k2), k2)
    return state_overlaps(t1, t2, i, j)[0].reshape(k1, k2)


def state_overlap(t1: StellarParams, t2: StellarParams) -> complex:
    """Phase-sensitive <psi1|psi2> from two ket triples: one pair of state_overlaps."""
    return complex(state_overlaps(t1[None], t2[None], [0], [0])[0][0])


def state_norm_squared(t: StellarParams) -> float:
    val = state_overlap(t, t)
    return float(max(val.real, 0.0))


class AmplitudeTable:
    """Coherent amplitudes of a stack of K ket triples as one product.

    ``w`` is the (K, 1 + m + m^2) table whose row j is W_j = (log c_j, b_j,
    vec(A_j) / 2), and ``w_abs`` is |w|.  With the monomials d(xi) = (1,
    conj(xi), vec(conj(xi) conj(xi)^T)) of an outcome,

        log <xi|G_j> = log c_j + b_j . conj(xi) + conj(xi)^T A_j conj(xi) / 2 - |xi|^2/2
                     = d(xi) . W_j - |xi|^2/2,

    so a block of L outcomes costs one (L, 1 + m + m^2) x (1 + m + m^2, K)
    product.  A single triple is a stack of one, and a single outcome a block
    of one: every coherent amplitude is this product.  Only this class and
    `ProbeValues` read the layout of the table.
    """

    __slots__ = ("modes", "w", "w_abs")

    def __init__(self, t: StellarParams):
        m, log_c = t.modes, np.reshape(t.log_c, -1)
        w = np.empty((log_c.shape[0], 1 + m + m * m), dtype=complex)
        w[:, 0] = log_c
        w[:, 1 : 1 + m] = t.b.reshape(-1, m)
        w[:, 1 + m :] = 0.5 * t.a.reshape(-1, m * m)
        self.modes, self.w, self.w_abs = m, w, np.abs(w)

    def _outcomes(self, xis) -> np.ndarray:
        xis = np.ascontiguousarray(xis, dtype=complex)
        if xis.ndim != 2 or xis.shape[1] != self.modes:
            raise DimensionMismatch("outcome dimension does not match state")
        return xis

    def _monomials(self, xis: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write d(xi) of outcomes (L, modes) to ``out`` (L, 1 + m + m^2); return |xi|^2/2, (L,)."""
        l, m = xis.shape
        out[:, 0] = 1.0
        xb = np.conjugate(xis, out=out[:, 1 : 1 + m])
        np.multiply(xb[:, :, None], xb[:, None, :], out=out[:, 1 + m :].reshape(l, m, m))
        parts = xis.view(float)
        return 0.5 * (parts * parts).sum(axis=1)

    def amplitudes(self, xis):
        """<xi|G_j> = exp(d(xi) . W_j - |xi|^2/2) for a block of outcomes (L,
        modes), and their rounding bounds (`_rounded`): (values, bounds), each
        (L, K), from one complex and one real product on the same monomials,
        S = |d(xi)| . |W_j| + |xi|^2/2; counts L K amplitude evaluations.
        """
        xis = self._outcomes(xis)
        d = np.empty((xis.shape[0], self.w.shape[1]), dtype=complex)
        counters.tally.amplitude_evals += d.shape[0] * self.w.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            h = self._monomials(xis, d)
            # a numpy vector loop follows each BLAS product before the complex
            # exp: straight after OpenBLAS 0.3.31's product on an AVX-512 host,
            # the exp ran 10-20 times slower
            out = d @ self.w.T
            out -= h[:, None]
            return _rounded(out, np.abs(d) @ self.w_abs.T + h[:, None], "amplitude kernel")


class ProbeValues:
    """The fast norm's probe value Z = |sum_j c_j a_j|^2 / (l1 sum_j |c_j| |a_j|^2)
    of a superposition sum_j c_j |G_j>, for blocks of probes.

    Built once per sweep from the stack's `AmplitudeTable`: the phases of
    the coefficients join log c in W, and its real form, the entries
    (Re W_jr, -Im W_jr) and (Im W_jr / 2, Re W_jr / 2) against the real and
    imaginary parts of each monomial and a row (-1, 0) against (|xi|^2/2, 0),
    gives the (2K, L) block (x, y/2) of x + iy = log(c_j a_j / |c_j|) in one
    real product, one probe per column so that every later pass runs over
    contiguous memory.  With e = exp(x) and t = tan(y/2),
    e cos y = e (1 - t^2) / (1 + t^2) and e sin y = 2 e t / (1 + t^2), and
    |c| . (e cos y, e sin y / 2, e^2) gives the numerator's real part, half
    its imaginary part and the denominator.  No complex exp, sin or cos
    runs: numpy takes those one value at a time, while its float64 exp and
    tan run as vector loops on AVX-512 hosts.  tan is accurate to an ulp, so
    e cos y and e sin y are off by a few u e at most.
    """

    __slots__ = ("table", "real_form", "weights", "l1")

    def __init__(self, table: AmplitudeTable, coeffs: np.ndarray, l1: float):
        w = table.w.copy()
        w[:, 0] += 1j * np.angle(coeffs)
        k, r = w.shape
        # columns: (Re, Im) of each monomial, then (|xi|^2/2, 0), so that a
        # probe's row of reals is also an aligned row of r + 1 complex values
        real_form = np.zeros((2 * k, 2 * r + 2))
        real_form[:k, 0:-2:2], real_form[:k, 1:-2:2], real_form[:k, -2] = w.real, -w.imag, -1.0
        real_form[k:, 0:-2:2], real_form[k:, 1:-2:2] = 0.5 * w.imag, 0.5 * w.real
        self.table, self.real_form, self.weights, self.l1 = table, real_form, np.abs(coeffs), l1

    def block(self, xis) -> np.ndarray:
        """Z of each probe of a block (L, modes), (L,); counts L K amplitude evaluations."""
        table = self.table
        xis = table._outcomes(xis)
        (l, _), (k, r) = xis.shape, table.w.shape
        row = np.empty((l, r + 1), dtype=complex)
        row[:, r] = table._monomials(xis, row[:, :r])
        counters.tally.amplitude_evals += l * k
        # four (K, L) slots: x then e = exp(x), y/2 then t = tan(y/2), t^2 and
        # g = e / (1 + t^2); they end as e^2, e sin y / 2 and e cos y
        slots = np.empty((4, k, l))
        e, t, t_sq, g = slots
        np.matmul(self.real_form, row.view(float).T, out=slots[:2].reshape(2 * k, l))
        np.exp(e, out=e)
        np.tan(t, out=t)
        np.multiply(t, t, out=t_sq)
        np.divide(e, np.add(t_sq, 1.0, out=g), out=g)
        np.multiply(np.subtract(1.0, t_sq, out=t_sq), g, out=t_sq)
        np.multiply(g, t, out=t)
        np.multiply(e, e, out=e)
        den, half_im, re = self.weights @ slots[:3]
        if not np.all(den > 0):
            raise ArithmeticError("every term's amplitude underflowed at a probe drawn from their mixture")
        return (re * re + 4.0 * (half_im * half_im)) / (self.l1 * den)


def coherent_amplitude(t: StellarParams, xi):
    """Heterodyne amplitude <xi|psi> of a ket triple, (K,) for a stack; counted."""
    amps = AmplitudeTable(t).amplitudes(np.atleast_1d(xi)[None])[0][0]
    return amps if np.ndim(t.log_c) else amps[0]


def coherent_amplitude_batch(t: StellarParams, xis: np.ndarray) -> np.ndarray:
    """<xi|psi> for outcomes (L, modes): (L,) for a triple, (L, K) for a stack of K; counted."""
    amps = AmplitudeTable(t).amplitudes(xis)[0]
    return amps if np.ndim(t.log_c) else amps[:, 0]


def husimi_gaussian(t: StellarParams):
    """Mean (K, 2n) and covariance (K, 2n, 2n) of v = (Re xi, Im xi) under the
    Husimi density |<xi|psi>|^2 / pi^n of each ket of a stack: it is
    exp(-v^T P v + 2 h^T v) up to a constant, P = [[1 - Re A, -Im A],
    [-Im A, 1 + Re A]] (positive definite as ||A||_2 < 1), h = (Re b, Im b)."""
    n, a, eye = t.modes, t.a, np.eye(t.modes)
    p = np.empty(a.shape[:-2] + (2 * n, 2 * n))
    p[..., :n, :n], p[..., n:, n:] = eye - a.real, eye + a.real
    p[..., :n, n:] = p[..., n:, :n] = -a.imag
    h = np.concatenate([t.b.real, t.b.imag], axis=-1)
    return np.linalg.solve(p, h[..., None])[..., 0], 0.5 * np.linalg.inv(p)


def fock_amplitude(t: StellarParams, nphot: int):
    """<n|psi> of a single-mode ket triple, or per triple of a stack, from the
    series of Gamma."""
    if t.modes != 1:
        raise DimensionMismatch("fock_amplitude expects a single-mode triple")
    a, b = t.a[..., 0, 0], t.b[..., 0]
    total = 0.0 + 0.0j
    for k in range(nphot // 2 + 1):
        j = nphot - 2 * k
        total += (a / 2) ** k * b**j / (factorial(k) * factorial(j))
    return t.c * np.sqrt(float(factorial(nphot))) * total


def fock11_amplitude(t: StellarParams):
    """<1,1|psi> of a two-mode ket triple, or per triple of a stack: c (b1 b2 + A12)."""
    if t.modes != 2:
        raise DimensionMismatch("fock11_amplitude expects a two-mode triple")
    return t.c * (t.b[..., 0] * t.b[..., 1] + t.a[..., 0, 1])
