"""Shared helpers: random state programs replayed on engine and oracle."""

import numpy as np
import pytest

from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze, factor_two_mode_unitary, omega, passive_from_unitary
from gsim.gaussian import GaussianPure
from gsim.phase import propagate
from gsim.states import Superposition, WeightedGaussian
from gsim.stellar import GaussianUnitary, StellarParams, overlap_matrix


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-random n x n unitary (scipy's sampler rejects n = 1)."""
    if n == 1:
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    from scipy.stats import unitary_group

    return unitary_group.rvs(n, random_state=rng)


def random_symplectic(n: int, rng, r_max: float = 1.5) -> np.ndarray:
    """Random symplectic via Haar passives around random single-mode squeezers."""
    u1 = haar_unitary(n, rng)
    u2 = haar_unitary(n, rng)
    z = np.eye(2 * n)
    for k in range(n):
        zk = np.exp(rng.uniform(-r_max, r_max))
        z[2 * k, 2 * k] = zk
        z[2 * k + 1, 2 * k + 1] = 1.0 / zk
    return passive_from_unitary(u1) @ z @ passive_from_unitary(u2)


def random_cp_channel(n: int, rng):
    """(X, Y) of a random completely positive channel: X a random symplectic
    scaled per quadrature, Y the least isotropic noise that H = Y + i(Omega -
    X Omega X^T) >= 0 allows plus a random positive part."""
    x = random_symplectic(n, rng, r_max=0.5) @ np.diag(rng.uniform(0.3, 1.2, 2 * n))
    om = omega(n)
    g = rng.normal(size=(2 * n, 2 * n)) / 2
    return x, np.linalg.eigvalsh(1j * (x @ om @ x.T - om)).max() * np.eye(2 * n) + g @ g.T


def passive_gates(u, modes=(0, 1)):
    """Primitive-gate realization of a 1x1 or 2x2 mode unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape == (1, 1):
        return [PhaseShift(modes[0], float(np.angle(u[0, 0])))]
    chi_l, theta, chi_r = factor_two_mode_unitary(u)
    return [
        PhaseShift(modes[0], float(chi_r[0])),
        PhaseShift(modes[1], float(chi_r[1])),
        BeamSplitter(modes[0], modes[1], float(theta), 0.0),
        PhaseShift(modes[0], float(chi_l[0])),
        PhaseShift(modes[1], float(chi_l[1])),
    ]


def random_pure_program(n, rng, alpha_max=2.0, r_max=1.5):
    """Gate list for a generic pure Gaussian: squeeze, displace, then passive."""
    gates = []
    for k in range(n):
        gates.append(Squeeze(k, rng.uniform(0, r_max), rng.uniform(0, 2 * np.pi)))
        mag = alpha_max * np.sqrt(rng.uniform(0, 1))
        ang = rng.uniform(0, 2 * np.pi)
        gates.append(Displace(k, mag * np.exp(1j * ang)))
    if n == 1:
        gates.append(PhaseShift(0, rng.uniform(0, 2 * np.pi)))
    elif n == 2:
        gates.extend(passive_gates(haar_unitary(2, rng)))
    else:
        # layered pairwise mixers cover the passive group well enough for tests
        for a, b in [(i, j) for i in range(n) for j in range(i + 1, n)]:
            gates.append(BeamSplitter(a, b, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
            gates.append(PhaseShift(a, rng.uniform(0, 2 * np.pi)))
        gates.append(PhaseShift(n - 1, rng.uniform(0, 2 * np.pi)))
    return gates


def stacked(terms) -> StellarParams:
    """The ket triples of a list of terms as one stack."""
    return StellarParams(
        np.array([g.bargmann.a for g in terms]),
        np.array([g.bargmann.b for g in terms]),
        np.array([g.bargmann.log_c for g in terms]),
    )


def single_gaussian(term: GaussianPure) -> Superposition:
    """The one-term superposition 1 * |term>."""
    return Superposition([WeightedGaussian(1.0 + 0.0j, term)])


def cross_overlap(a: Superposition, b: Superposition) -> complex:
    """<a|b> between two superpositions from their rank_a x rank_b overlaps."""
    return complex(np.conj(a.coeffs) @ overlap_matrix(a.triples, b.triples) @ b.coeffs)


def engine_state(gates, n) -> GaussianPure:
    return propagate(GaussianPure.vacuum(n), GaussianUnitary.from_gates(gates, n))


def random_circuit(n, depth, rng, alpha_max=0.4, r_max=0.25):
    """Bounded random Gaussian circuit usable on both engine and oracle."""
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 4)
        if kind == 0:
            mode = int(rng.integers(0, n))
            mag = alpha_max * rng.uniform()
            gates.append(Displace(mode, mag * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        elif kind == 1:
            mode = int(rng.integers(0, n))
            gates.append(Squeeze(mode, rng.uniform(0, r_max), rng.uniform(0, 2 * np.pi)))
        elif kind == 2:
            mode = int(rng.integers(0, n))
            gates.append(PhaseShift(mode, rng.uniform(0, 2 * np.pi)))
        else:
            if n < 2:
                gates.append(PhaseShift(0, rng.uniform(0, 2 * np.pi)))
            else:
                m1, m2 = rng.choice(n, size=2, replace=False)
                gates.append(
                    BeamSplitter(int(m1), int(m2), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
                )
    return gates


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
