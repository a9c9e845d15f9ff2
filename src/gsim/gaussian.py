"""Gaussian states and measurements: pure terms and the covariance reference.

`GaussianPure`, a pure term stored as its ket triple, is on the user paths:
`states` builds its entries view from it.  The covariance formalism for
mixed states, channels (`apply_channel` and `compose_channels` on
`gates.GaussianChannel`), general-dyne measurements and fidelities is the
reference those paths are tested against.  It imports the engine (`gates`,
`stellar`); no other module on a user path imports it.

Conventions (fixed repo-wide and validated against the Fock oracle):

* quadrature ordering (q1, p1, ..., qn, pn) with [q, p] = i;
* anticommutator covariance, so the vacuum has sigma = identity;
* a coherent state of amplitude a has mean sqrt(2) (Re a, Im a);
* general-dyne outcome densities are over the quadrature outcome vector;
  the coherent-POVM density over d^2n(alpha) used by the Born estimators
  differs by the Jacobian factor 2^n (see `simulator.exact_born`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import stellar
from ._linalg import EIG_ROUNDING, EPS, TOL_PSD, TOL_PURE, inv_psd, min_eig_hermitian, solve_psd
from .exceptions import DimensionMismatch
from .gates import GaussianChannel, block_diag, omega, require_symplectic


def check_admissible(cov: np.ndarray) -> None:
    """Raise unless sigma + i Omega >= -(TOL_PSD + EIG_ROUNDING EPS ||sigma||_2)
    (uncertainty relation): its computed eigenvalues carry rounding of order
    EPS ||sigma||_2, so the margin grows with the squeezing."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    if cov.shape != (2 * n, 2 * n) or not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance must be symmetric with even dimension")
    margin = TOL_PSD + EIG_ROUNDING * EPS * np.linalg.norm(cov, 2)
    if min_eig_hermitian(cov + 1j * omega(n)) < -margin:
        raise ValueError("covariance violates sigma + i Omega >= 0")


def is_pure_cov(cov: np.ndarray) -> bool:
    """sigma Omega sigma^T = Omega, entry (i, j) to TOL_PURE + (n + 1) EPS M_ij with
    M_ij = d_i d_j sum_k d_k d_k' (d = sqrt(diag sigma), k' the partner
    quadrature of k).  That bounds the residual's rounding to first order when
    each sigma_ik is off by at most EPS/2 d_i d_k (d_i d_k >= |sigma_ik| for
    sigma >= 0): 2 EPS/2 M_ij from the entries, 2n EPS/2 M_ij from the
    product.  A mixed state fails wherever its residual stands above that
    bound, which at strong squeezing is the limit of what its moments tell."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    om = omega(n)
    d = np.sqrt(np.diag(cov))
    scale = np.outer(d, d) * (2.0 * d[0::2] @ d[1::2])
    return bool(np.all(np.abs(cov @ om @ cov.T - om) <= TOL_PURE + (n + 1) * EPS * scale))


@dataclass(frozen=True)
class GaussianMixed:
    """Gaussian state given by covariance and mean; may be mixed."""

    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cov", np.array(self.cov, dtype=float))
        object.__setattr__(self, "mean", np.array(self.mean, dtype=float))
        if self.cov.shape[0] != self.mean.shape[0]:
            raise DimensionMismatch("covariance and mean sizes disagree")
        check_admissible(self.cov)

    @property
    def n(self) -> int:
        return self.cov.shape[0] // 2

    @classmethod
    def vacuum(cls, n: int) -> "GaussianMixed":
        return cls(np.eye(2 * n), np.zeros(2 * n))


class GaussianPure:
    """Pure Gaussian ket, stored as its holomorphic triple ``bargmann`` = (A, b, log c).

    ``c`` = <0|G> is the phase-sensitive reference overlap against the vacuum:
    together with (A, b) it pins the global phase of the ket.  The triple is
    the only store: covariance and mean are always derived from (A, b) on
    first use, also for a term built from moments.

    Two construction boundaries, each validated by ``stellar.check_normalised``:

    * ``GaussianPure(cov, mean, ref_overlap)`` takes moments from outside and
      checks admissibility, purity and the modulus of ``ref_overlap``; below
      1e-150, where a linear overlap may have underflowed, only its phase is
      kept and the modulus comes from the closed form;
    * ``GaussianPure.from_triple(triple)`` takes a triple built by the library
      and checks log |c| against its closed-form normalisation.
    """

    def __init__(self, cov, mean, ref_overlap):
        cov = np.array(cov, dtype=float)
        mean = np.array(mean, dtype=float)
        check_admissible(cov)
        if not is_pure_cov(cov):
            raise ValueError("covariance is not pure (sigma Omega sigma^T != Omega)")
        a, b, log_mag = stellar.pure_state_params(cov, mean)
        with np.errstate(divide="ignore"):
            log_c = np.log(complex(ref_overlap))
        if log_mag <= np.log(1e-150):
            log_c = complex(log_mag, log_c.imag)
        self.bargmann = stellar.StellarParams(a, b, log_c)
        stellar.check_normalised(self.bargmann)

    @classmethod
    def from_triple(cls, triple: stellar.StellarParams) -> "GaussianPure":
        """Term with the given ket triple; checks |c| against its normalisation."""
        stellar.check_normalised(triple)
        return cls.from_checked_triple(triple)

    @classmethod
    def from_checked_triple(cls, triple: stellar.StellarParams) -> "GaussianPure":
        """Term wrapping a triple that has already passed ``stellar.check_normalised``."""
        g = cls.__new__(cls)
        g.bargmann = triple
        return g

    @property
    def n(self) -> int:
        return self.bargmann.modes

    @property
    def ref_overlap(self) -> complex:
        return self.bargmann.c

    @cached_property
    def _moments(self):
        return stellar.pure_state_moments(self.bargmann.a, self.bargmann.b)

    @property
    def cov(self) -> np.ndarray:
        return self._moments[0]

    @property
    def mean(self) -> np.ndarray:
        return self._moments[1]

    @classmethod
    def vacuum(cls, n: int) -> "GaussianPure":
        return cls.from_triple(stellar.vacuum(n))

    @classmethod
    def coherent(cls, alpha) -> "GaussianPure":
        """Tensor product of coherent states, one amplitude per mode: (0, alpha, -|alpha|^2/2)."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
        n, log_c = alpha.shape[0], -0.5 * float(np.sum(np.abs(alpha) ** 2))
        return cls.from_triple(stellar.StellarParams(np.zeros((n, n)), alpha, log_c))

    def as_mixed(self) -> GaussianMixed:
        return GaussianMixed(self.cov, self.mean)


@dataclass(frozen=True)
class GeneralDyne:
    """General-dyne measurement with POVM seed covariance on selected modes."""

    cov_m: np.ndarray
    modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "cov_m", np.array(self.cov_m, dtype=float))
        object.__setattr__(self, "modes", tuple(self.modes))
        check_admissible(self.cov_m)

    @classmethod
    def heterodyne(cls, modes) -> "GeneralDyne":
        modes = tuple(modes)
        return cls(np.eye(2 * len(modes)), modes)


def _mode_slices(modes):
    return np.array([k for m in modes for k in (2 * m, 2 * m + 1)], dtype=int)


def apply_symplectic(state, s) -> GaussianMixed:
    """Apply a symplectic quadrature map to the moments of a Gaussian state."""
    s = require_symplectic(s)
    if s.shape[0] != 2 * state.n:
        raise DimensionMismatch("symplectic dimension does not match state")
    return GaussianMixed(s @ state.cov @ s.T, s @ state.mean)


def tensor(a, b):
    """Direct sum of two Gaussian states (modes of ``b`` appended); two pure
    terms give the `stellar.tensor` of their triples."""
    if isinstance(a, GaussianPure) and isinstance(b, GaussianPure):
        return GaussianPure.from_triple(stellar.tensor(a.bargmann, b.bargmann))
    return GaussianMixed(block_diag(a.cov, b.cov), np.concatenate([a.mean, b.mean]))


def apply_channel(state: GaussianMixed, ch: GaussianChannel) -> GaussianMixed:
    if ch.x.shape[0] != state.cov.shape[0]:
        raise DimensionMismatch("channel dimension does not match state")
    return GaussianMixed(ch.x @ state.cov @ ch.x.T + ch.y, ch.x @ state.mean + ch.d)


def compose_channels(c1: GaussianChannel, c2: GaussianChannel) -> GaussianChannel:
    """Channel equal to applying c1 first, then c2."""
    return GaussianChannel(c2.x @ c1.x, c2.x @ c1.y @ c2.x.T + c2.y, c2.x @ c1.d + c2.d)


def generaldyne_density(state, meas: GeneralDyne, outcome) -> float:
    """Outcome density of a general-dyne measurement on the measured modes.

    Normalized over the quadrature outcome vector r_m:
    exp(-(r_m - rbar)^T (sigma + sigma_m)^{-1} (r_m - rbar))
    / (pi^m sqrt(det(sigma + sigma_m))).
    """
    outcome = np.asarray(outcome, dtype=float)
    idx = _mode_slices(meas.modes)
    if outcome.shape[0] != idx.shape[0]:
        raise DimensionMismatch("outcome dimension does not match measured modes")
    sub_cov = state.cov[np.ix_(idx, idx)]
    sub_mean = state.mean[idx]
    total = sub_cov + meas.cov_m
    diff = outcome - sub_mean
    expo = -float(diff @ solve_psd(total, diff, "sigma + sigma_m"))
    m = len(meas.modes)
    det = float(np.linalg.det(total))
    return float(np.exp(expo) / (np.pi**m * np.sqrt(det)))


def condition_on_generaldyne(state, meas: GeneralDyne, outcome):
    """Conditional state of the unmeasured modes after a general-dyne outcome."""
    outcome = np.asarray(outcome, dtype=float)
    n = state.cov.shape[0] // 2
    meas_modes = tuple(meas.modes)
    keep_modes = tuple(m for m in range(n) if m not in meas_modes)
    ia = _mode_slices(keep_modes)
    ib = _mode_slices(meas_modes)
    if outcome.shape[0] != ib.shape[0]:
        raise DimensionMismatch("outcome dimension does not match measured modes")
    cov_a = state.cov[np.ix_(ia, ia)]
    cov_b = state.cov[np.ix_(ib, ib)]
    cov_ab = state.cov[np.ix_(ia, ib)]
    total = cov_b + meas.cov_m
    gain = cov_ab @ inv_psd(total, "sigma_B + sigma_m")
    mean_a = state.mean[ia] + gain @ (outcome - state.mean[ib])
    new_cov = cov_a - gain @ cov_ab.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    return GaussianMixed(new_cov, mean_a)


def fidelity_pure(rho, phi) -> float:
    """Fidelity <phi|rho|phi> between a Gaussian state and a pure Gaussian."""
    if rho.cov.shape != phi.cov.shape:
        raise DimensionMismatch("states act on different mode counts")
    n = rho.cov.shape[0] // 2
    total = rho.cov + phi.cov
    d = rho.mean - phi.mean
    expo = -float(d @ solve_psd(total, d, "sigma_0 + sigma_1"))
    val = 2**n * np.exp(expo) / np.sqrt(float(np.linalg.det(total)))
    return float(min(max(val, 0.0), 1.0 + 1e-12))
