"""Primitive Gaussian gates and their quadrature-space action.

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
"""

from dataclasses import dataclass

import numpy as np

from .symplectic import passive_from_unitary


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
