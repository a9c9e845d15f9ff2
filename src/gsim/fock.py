"""Brute-force truncated Fock-basis oracle.

Validation-only backend: states are complex amplitude tensors with one axis
per mode, gates act through exactly-unitary exponentials of the truncated
generators (cached eigendecompositions, so repeated gates cost matvecs).
Never used inside the estimators.

Truncation is monitored through the amplitude mass parked in the top Fock
levels of each mode; constructions whose edge mass exceeds ``leak_tol``
raise :class:`LeakageError`.  The default cutoffs comfortably cover
coherent amplitudes up to |alpha| ~ 3; squeezing pushes photon-number tails
through the anti-squeezed quadrature much harder (r = 1 already needs a
cutoff above 100 at the default tolerance), so squeezed constructions
should pass an explicit cutoff sized to their parameters.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DimensionMismatch, LeakageError
from .gates import BeamSplitter, Displace, PhaseShift, Squeeze, check_gate_modes, factor_two_mode_unitary

DEFAULT_CUTOFF_1MODE = 60
DEFAULT_CUTOFF_2MODE = 40
LEAK_TOL = 1e-10
EDGE_LEVELS = 3  # per-mode levels counted as the truncation edge


@lru_cache(maxsize=None)
def _ladder(cutoff: int):
    ad = np.diag(np.sqrt(np.arange(1, cutoff)), -1)
    return ad.T.conj(), ad


@lru_cache(maxsize=None)
def _displacement_basis(cutoff: int):
    """Eigendecomposition of i(ad - a); D(|a|e^{i p}) = P(p) expm(|a|(ad - a)) P(-p)."""
    a, ad = _ladder(cutoff)
    herm = 1j * (ad - a)
    lam, vec = np.linalg.eigh(herm)
    return lam, vec


@lru_cache(maxsize=None)
def _squeeze_basis(cutoff: int):
    """Eigendecomposition of i(a^2 - ad^2)/2 for S(r) = expm(r (a^2 - ad^2) / 2)."""
    a, ad = _ladder(cutoff)
    herm = 0.5j * (a @ a - ad @ ad)
    lam, vec = np.linalg.eigh(herm)
    return lam, vec


@lru_cache(maxsize=None)
def _beamsplitter_blocks(cutoff: int):
    """Blockwise eigendecompositions of the real-beamsplitter generator.

    The generator ad b - a bd conserves total photon number, so it splits
    into blocks indexed by total N with basis |k, N-k>.
    """
    blocks = []
    for total in range(2 * cutoff - 1):
        ks = np.arange(max(0, total - (cutoff - 1)), min(total, cutoff - 1) + 1)
        size = ks.shape[0]
        gen = np.zeros((size, size))
        for i in range(size - 1):
            k = ks[i]
            val = np.sqrt((k + 1) * (total - k))
            gen[i + 1, i] = val
            gen[i, i + 1] = -val
        lam, vec = np.linalg.eigh(1j * gen)
        blocks.append((total, ks, lam, vec))
    return blocks


def _apply_single(vec_state: np.ndarray, mode: int, mat: np.ndarray) -> np.ndarray:
    moved = np.moveaxis(vec_state, mode, 0)
    shape = moved.shape
    out = mat @ moved.reshape(shape[0], -1)
    return np.moveaxis(out.reshape(shape), 0, mode)


def _phase_diag(cutoff: int, theta: float) -> np.ndarray:
    return np.exp(1j * theta * np.arange(cutoff))


@dataclass
class FockVector:
    """Truncated multimode state: complex tensor with one axis per mode."""

    amplitudes: np.ndarray
    cutoff: int

    @property
    def n(self) -> int:
        return self.amplitudes.ndim

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def edge_mass(self) -> float:
        """Amplitude-squared mass in the top EDGE_LEVELS of any mode."""
        total = 0.0
        for axis in range(self.amplitudes.ndim):
            sl = [slice(None)] * self.amplitudes.ndim
            sl[axis] = slice(self.cutoff - EDGE_LEVELS, None)
            total += float(np.sum(np.abs(self.amplitudes[tuple(sl)]) ** 2))
        return total


def vacuum_vector(n: int, cutoff: int) -> FockVector:
    amps = np.zeros((cutoff,) * n, dtype=complex)
    amps[(0,) * n] = 1.0
    return FockVector(amps, cutoff)


def coherent_column(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes of |alpha>: e^{-|a|^2/2} a^k / sqrt(k!)."""
    col = np.empty(cutoff, dtype=complex)
    col[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, cutoff):
        col[k] = col[k - 1] * alpha / np.sqrt(k)
    return col


def apply_gate(state: FockVector, gate) -> FockVector:
    """Apply one primitive gate; exactly unitary on the truncated space."""
    check_gate_modes(gate, state.n)
    amps = state.amplitudes
    cut = state.cutoff
    if isinstance(gate, Displace):
        mag, ang = abs(gate.alpha), np.angle(gate.alpha)
        lam, vec = _displacement_basis(cut)
        mat = (vec * np.exp(-1j * mag * lam)) @ vec.conj().T
        ph = _phase_diag(cut, ang)
        full = (ph[:, None] * mat) * np.conj(ph)[None, :]
        amps = _apply_single(amps, gate.mode, full)
    elif isinstance(gate, Squeeze):
        lam, vec = _squeeze_basis(cut)
        mat = (vec * np.exp(-1j * gate.r * lam)) @ vec.conj().T
        ph = _phase_diag(cut, gate.theta / 2)
        full = (ph[:, None] * mat) * np.conj(ph)[None, :]
        amps = _apply_single(amps, gate.mode, full)
    elif isinstance(gate, PhaseShift):
        amps = _apply_single(amps, gate.mode, np.diag(_phase_diag(cut, gate.theta)))
    elif isinstance(gate, BeamSplitter):
        amps = _apply_beamsplitter(amps, cut, gate)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return FockVector(amps, cut)


def _apply_beamsplitter(amps: np.ndarray, cut: int, gate: BeamSplitter) -> np.ndarray:
    # BS(theta, phi) = P1(phi) BS(theta, 0) P1(-phi)
    m1, m2 = gate.mode1, gate.mode2
    if gate.phi:
        amps = _apply_single(amps, m1, np.diag(_phase_diag(cut, -gate.phi)))
    moved = np.moveaxis(amps, (m1, m2), (0, 1))
    shape = moved.shape
    work = moved.reshape(cut, cut, -1).astype(complex)
    for total, ks, lam, vec in _beamsplitter_blocks(cut):
        sub = work[ks, total - ks, :]
        rot = (vec * np.exp(-1j * gate.theta * lam)) @ vec.conj().T
        work[ks, total - ks, :] = np.tensordot(rot, sub, axes=(1, 0))
    out = np.moveaxis(work.reshape(shape), (0, 1), (m1, m2))
    if gate.phi:
        out = _apply_single(out, m1, np.diag(_phase_diag(cut, gate.phi)))
    return out


def apply_mode_unitary(state: FockVector, u: np.ndarray, modes) -> FockVector:
    """Apply an arbitrary passive mode unitary (1x1 or 2x2 supported)."""
    if u.shape == (1, 1):
        return apply_gate(state, PhaseShift(modes[0], float(np.angle(u[0, 0]))))
    if u.shape != (2, 2):
        raise DimensionMismatch("oracle supports passive unitaries on <= 2 modes")
    chi_l, theta, chi_r = factor_two_mode_unitary(u)
    out = apply_gate(state, PhaseShift(modes[0], float(chi_r[0])))
    out = apply_gate(out, PhaseShift(modes[1], float(chi_r[1])))
    out = apply_gate(out, BeamSplitter(modes[0], modes[1], float(theta), 0.0))
    out = apply_gate(out, PhaseShift(modes[0], float(chi_l[0])))
    out = apply_gate(out, PhaseShift(modes[1], float(chi_l[1])))
    return out


def oracle_state(program, n: int, cutoff: int | None = None, leak_tol: float = LEAK_TOL) -> FockVector:
    """Build a state by applying ``program`` (gate list) to the n-mode vacuum."""
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_1MODE if n == 1 else DEFAULT_CUTOFF_2MODE
    state = vacuum_vector(n, cutoff)
    for gate in program:
        state = apply_gate(state, gate)
    leak = state.edge_mass()
    if leak > leak_tol:
        raise LeakageError(f"edge mass {leak:.3e} exceeds leak_tol {leak_tol:.1e}")
    return state


def oracle_overlap(a: FockVector, b: FockVector) -> complex:
    if a.cutoff != b.cutoff or a.n != b.n:
        raise DimensionMismatch("oracle states have different cutoffs or modes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def coherent_amplitude(state: FockVector, xi) -> complex:
    """<xi|state> for a tensor product of coherent states."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    if xi.shape[0] != state.n:
        raise DimensionMismatch("outcome dimension does not match state")
    out = state.amplitudes
    for k in range(state.n - 1, -1, -1):
        col = coherent_column(xi[k], state.cutoff)
        out = np.tensordot(out, np.conj(col), axes=([k], [0]))
    return complex(out)


def oracle_born(state: FockVector, xi) -> float:
    """Heterodyne density |<xi|psi>|^2 / (pi^n ||psi||^2), coherent-POVM convention."""
    amp = coherent_amplitude(state, xi)
    return float(abs(amp) ** 2 / (np.pi ** state.n * state.norm_squared()))


def condition_on_coherent(state: FockVector, mode: int, xi: complex) -> FockVector:
    """Contract one mode with <xi| (unnormalized conditional state)."""
    col = np.conj(coherent_column(xi, state.cutoff))
    amps = np.tensordot(state.amplitudes, col, axes=([mode], [0]))
    return FockVector(amps, state.cutoff)
