"""Phase-sensitive inner products between pure Gaussian states: a reference.

The reference-state triple product Tr(G0 G1 G2) factorizes into the three
pairwise overlaps, and a closed Gaussian kernel in the covariances and
means evaluates it with the relative phase intact (`triple_overlap`,
`overlap`).  It is an independent check of the holomorphic backend
(`stellar`), whose gate engine folds a `stellar.GaussianUnitary` onto ket
triples and is the source of truth for phases along circuits; `propagate`
is that fold on one term.  Both are cross-validated against the truncated
Fock oracle.  This module imports the engine, and no module on a user path
imports it.
"""

import numpy as np

from . import stellar
from ._linalg import EPS_REF, solve_complex
from .exceptions import DimensionMismatch, GsimError, ReferenceDegenerate
from .gates import Displace, Squeeze, omega
from .gaussian import GaussianPure
from .rng import stream
from .stellar import GaussianUnitary


def triple_kernel(cov1, cov2, mean1, mean2):
    """Kernel (Delta, mu_Delta) of the triple product for fixed G1, G2.

    Delta  = sigma2 - (sigma2 + i Omega) (sigma1 + sigma2)^{-1} (sigma2 - i Omega)
    mu_D   = mu2 + (sigma2 + i Omega) (sigma1 + sigma2)^{-1} (mu1 - mu2)

    Delta has positive-definite real part, which fixes the branch of every
    determinant square root downstream.
    """
    n = cov1.shape[0] // 2
    om = omega(n)
    total = cov1 + cov2
    k_right = cov2 - 1j * om
    k_left = cov2 + 1j * om
    sol = solve_complex(total.astype(complex), np.column_stack([k_right, (mean1 - mean2).astype(complex)]), "sigma1 + sigma2")
    delta = cov2 - k_left @ sol[:, :-1]
    mu_delta = mean2 + k_left @ sol[:, -1]
    return delta, mu_delta


def triple_overlap(g0: GaussianPure, g1: GaussianPure, g2: GaussianPure) -> complex:
    """Phase-sensitive product <G2|G0><G1|G2><G0|G1>.

    Normalization is fixed at T(vac, vac, vac) = 1 (the 4^n prefactor
    below makes that exact) and validated on coherent families and against
    the Fock oracle.  det(sigma0 + Delta)^{1/2} is a sum of logs over its
    eigenvalues, which must lie in the open right half-plane (else GsimError).
    """
    if not (g0.n == g1.n == g2.n):
        raise DimensionMismatch("triple product requires equal mode counts")
    n = g0.n
    delta, mu_delta = triple_kernel(g1.cov, g2.cov, g1.mean, g2.mean)
    total12 = g1.cov + g2.cov
    kernel0 = g0.cov + delta
    d12 = g1.mean - g2.mean
    d0 = g0.mean - mu_delta
    quad12 = float(d12 @ np.linalg.solve(total12, d12))
    quad0 = complex(d0 @ solve_complex(kernel0, d0, "sigma0 + Delta"))
    lam = np.linalg.eigvals(kernel0)
    if np.count_nonzero(lam.real <= 0):
        raise GsimError("sigma0 + Delta has eigenvalues off the right half-plane")
    pref = 4.0**n / (np.sqrt(float(np.linalg.det(total12))) * np.exp(stellar._half_log(lam).sum()))
    return complex(pref * np.exp(-quad12 - quad0))


def _random_reference(states, seed: int) -> GaussianPure:
    """Seeded squeezed-coherent reference for the degeneracy fallback.

    Centered on the midpoint of the states' means so the retry can reach
    pairs that sit far from the vacuum.
    """
    rng = stream(seed, 0)
    n = states[0].n
    center = np.mean([g.mean for g in states], axis=0)
    gates = []
    for k in range(n):
        gates.append(Squeeze(k, rng.uniform(0.1, 0.6), rng.uniform(0, 2 * np.pi)))
    for k in range(n):
        alpha = (center[2 * k] + 1j * center[2 * k + 1]) / np.sqrt(2)
        jitter = rng.normal(scale=0.3) + 1j * rng.normal(scale=0.3)
        gates.append(Displace(k, alpha + jitter))
    op = GaussianUnitary.from_gates(gates, n)
    return propagate(GaussianPure.vacuum(n), op)


def overlap(g1: GaussianPure, g2: GaussianPure) -> complex:
    """Phase-sensitive <G1|G2> through a shared reference state G0.

    G0 is the vacuum, whose overlaps are the terms' ``ref_overlap``.  If
    either is below the usable floor, G0 becomes a seeded random
    squeezed-coherent reference and the overlaps against it come from the
    holomorphic backend; a second degeneracy is surfaced as
    :class:`ReferenceDegenerate`.
    """
    if g1.n != g2.n:
        raise DimensionMismatch("states act on different mode counts")
    g0 = GaussianPure.vacuum(g1.n)
    o1, o2 = g1.ref_overlap, g2.ref_overlap
    if min(abs(o1), abs(o2)) < EPS_REF:
        g0 = _random_reference([g1, g2], seed=0x5EED)
        o1 = stellar.state_overlap(g0.bargmann, g1.bargmann)
        o2 = stellar.state_overlap(g0.bargmann, g2.bargmann)
        if min(abs(o1), abs(o2)) < EPS_REF:
            raise ReferenceDegenerate("a state is orthogonal to the retry reference")
    return complex(triple_overlap(g0, g1, g2) / (o1 * np.conj(o2)))


def propagate(g: GaussianPure, op: GaussianUnitary) -> GaussianPure:
    """Apply a Gaussian unitary to a pure state, phase-exact: the one-term
    case of `simulator.evolve`."""
    return GaussianPure.from_triple(op.apply(g.bargmann))
