"""Exact and linear-scaling approximate simulation of Gaussian circuits on
superpositions of Gaussian states.

The exact Born evaluator costs O(rank) amplitude evaluations for the
numerator and O(rank^2) pairwise overlaps for the norm.  The approximate
pipeline sparsifies the decomposition down to k = ceil((l1/delta)^2) terms
and replaces the Gram norm with a Monte-Carlo estimate from a Gaussian
ensemble of coherent probes, making the total cost linear in the rank.
Every routine works on a superposition's stacked triples at once: no loop
runs over its terms.  A sparsified state keeps one triple per distinct draw,
so its cost follows the K <= k distinct terms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters, stellar
from .exceptions import DimensionMismatch
from .gaussian import check_normalised
from .phase import GaussianUnitary
from .rng import normal_rows, stream
from .states import Superposition


def evolve(sup: Superposition, op: GaussianUnitary) -> Superposition:
    """Gaussian unitary folded over the whole stack of triples, then one
    stacked normalisation check; coefficients, rank and l1 are untouched."""
    triples = op.apply(sup.triples)
    check_normalised(triples)
    return Superposition.from_stack(sup.coeffs, triples)


# ---------------------------------------------------------------------------
# heterodyne conditioning


def condition(sup: Superposition, modes, outcome):
    """Project the measured modes onto the heterodyne outcome <xi|.

    Each pure Gaussian term conditions to a pure Gaussian on the kept modes;
    its coefficient picks up the (phase-sensitive) partial amplitude, of
    modulus nu_i with log nu_i = Re log c_i - log_magnitude(A_i, b_i) of the
    reduced triple.  Coefficients are scaled by nu_i / max_j nu_j, so a term
    whose nu_i underflows survives; only one whose ratio underflows is
    dropped.  The return value is (conditioned superposition, weight) with
    weight = ||(1 (x) <xi|) psi||^2, so the heterodyne outcome density over
    d^2m(xi) is weight / (pi^m ||psi||^2).  Rank never increases.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    kb = list(modes)
    if any(m < 0 or m >= sup.n for m in kb):
        raise ValueError(f"measured modes {kb}: mode index outside 0..{sup.n - 1}")
    if len(set(kb)) != len(kb):
        raise ValueError("measured modes must be distinct")
    ka = [m for m in range(sup.n) if m not in kb]
    if outcome.shape[0] != len(kb):
        raise DimensionMismatch("outcome dimension does not match measured modes")
    if not ka:
        raise ValueError("conditioning must leave at least one mode")
    xb = np.conj(outcome)

    t = sup.triples
    rows = t.a[:, ka]
    a_bb = t.a[:, kb][:, :, kb]
    log_c = t.log_c - 0.5 * float(np.sum(np.abs(outcome) ** 2)) + t.b[:, kb] @ xb + 0.5 * xb @ a_bb @ xb
    a, b = rows[:, :, ka], t.b[:, ka] + rows[:, :, kb] @ xb
    log_nu = log_c.real - stellar.log_magnitude(a, b)
    shift = np.max(log_nu)
    scale = np.exp(log_nu - shift)
    keep = scale > 0.0
    if not keep.any():
        raise ValueError("all terms annihilated by the conditioning outcome")
    reduced = stellar.StellarParams(a[keep], b[keep], (log_c - log_nu)[keep])
    out = Superposition.from_stack(sup.coeffs[keep] * scale[keep], reduced)
    return out, out.norm_squared() * np.exp(2.0 * shift)


def heterodyne_density(sup: Superposition, modes, outcome) -> float:
    """Outcome density over d^2m(xi) for heterodyning a subset of modes."""
    _, weight = condition(sup, modes, outcome)
    m = len(tuple(modes))
    return weight / (np.pi**m * sup.norm_squared())


# ---------------------------------------------------------------------------
# Born probabilities


@dataclass(frozen=True)
class BornEstimate:
    value: float
    method: str
    numerator: float
    norm_estimate: float
    error_band: tuple | None = None
    seed: int | None = None


def _clamp_density(value: float) -> float:
    if value < 0.0:
        counters.tally.clamped_densities += 1
        if value < -1e-12:
            raise ArithmeticError(f"density {value:.3e} below the clamp floor")
        return 0.0
    return value


def exact_born(sup: Superposition, outcome) -> BornEstimate:
    """Heterodyne Born density at a coherent outcome, coherent-POVM convention.

    density = |<x|psi>|^2 / (pi^n <psi|psi>), with the numerator from one
    O(rank) amplitude sweep and the norm from the exact Gram.  Relative to
    the quadrature-outcome general-dyne density this carries the Jacobian
    factor 2^n.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    if outcome.shape[0] != sup.n:
        raise DimensionMismatch("outcome dimension does not match state")
    amp = sup.coherent_amplitude(outcome)
    numerator = abs(amp) ** 2
    norm_sq = sup.norm_squared()
    value = _clamp_density(numerator / (np.pi**sup.n * norm_sq))
    return BornEstimate(value, "exact", numerator, norm_sq)


# ---------------------------------------------------------------------------
# sparsification


@dataclass(frozen=True)
class SparsifyPlan:
    """Sample count k = ceil((l1 / delta)^2) for a target 2-norm error delta."""

    delta: float
    seed: int
    k: int | None = None

    def samples_for(self, l1: float) -> int:
        if self.k is not None:
            return self.k
        return max(1, math.ceil((l1 / self.delta) ** 2))


def sparsify(sup: Superposition, plan: SparsifyPlan) -> Superposition:
    """IID importance sampling of decomposition terms: p(i) = |c_i| / l1.

    Every draw contributes l1/k with the coefficient phase folded into the
    term's gauge, so E<sparsified|psi> = 1 for normalized input.  A term
    drawn m times is kept once with coefficient m l1/k: the result has one
    triple per distinct draw, K <= k of them.
    """
    k = plan.samples_for(sup.l1)
    probs = np.abs(sup.coeffs) / sup.l1
    rng = stream(plan.seed, 0)
    draws = rng.choice(sup.rank, size=k, p=probs)
    counters.tally.samples += k
    used, counts = np.unique(draws, return_counts=True)
    t = sup.triples[used]
    folded = stellar.StellarParams(t.a, t.b, t.log_c + 1j * np.angle(sup.coeffs[used]))
    return Superposition.from_stack(counts * (sup.l1 / k), folded)


def cross_overlap(a: Superposition, b: Superposition) -> complex:
    """<a|b> between two superpositions from their rank_a x rank_b overlaps."""
    ca, cb = a.coeffs, b.coeffs
    i, j = np.divmod(np.arange(len(ca) * len(cb)), len(cb))
    pairs = stellar.state_overlaps(a.triples, b.triples, i, j)
    return complex(np.conj(ca) @ pairs.reshape(len(ca), len(cb)) @ cb)


# ---------------------------------------------------------------------------
# fast norm estimation


@dataclass(frozen=True)
class NormEstimate:
    eta: float
    samples: int
    ensemble_n: float
    epsilon: float
    p_fail: float
    delta_bias: float
    seed: int
    band: tuple

    def relative_band(self) -> tuple:
        return (1.0 - self.epsilon - self.delta_bias, 1.0 + self.epsilon + self.delta_bias)


def fast_norm(
    sup: Superposition,
    epsilon: float,
    p_fail: float,
    ensemble_n: float | None = None,
    seed: int = 0,
    husimi_moment: float | None = None,
) -> NormEstimate:
    """Monte-Carlo estimate of <psi|psi> linear in the rank.

    Probes xi are drawn from the Gaussian displacement ensemble of width N
    (density e^{-|xi|^2/N} / (pi N)^n); X = N^n |<xi|psi>|^2 has mean within
    [(1 - delta) |psi|^2, |psi|^2] for delta = M_H / N, where M_H is the
    Husimi moment (mean photon number plus mode count).  The second moment
    obeys E[X^2] <= (N/2)^n |psi|^4 unconditionally (the vacuum saturates
    it), so the sample count
    L = ceil((2^{-n} N^n + delta pi^n) / pi^n / (eps^2 p_fail))
    gives a Chebyshev band (1 +/- (eps + delta)) |psi|^2 that is guaranteed
    only at confidence 1 - pi^n p_fail, because L divides by pi^n; the
    nominal 1 - p_fail is not.  Measured coverage meets the nominal level on
    the one-mode library states and falls short of it on more modes (two
    modes: about 94% at p_fail = 0.05; see the README).

    Probe i is drawn from the Philox stream (seed, i): one vectorised
    ``rng.normal_rows`` call gives all L rows of 2n normals, so row i does
    not depend on L or on how the probes are batched.  The cost is the L
    amplitude evaluations per term plus O(L n) array work for the probes.
    """
    if not (0 < epsilon < 1 and 0 < p_fail < 1):
        raise ValueError("epsilon and p_fail must lie in (0, 1)")
    n = sup.n
    if husimi_moment is None:
        husimi_moment = sup.mean_photon_husimi()
    if ensemble_n is None:
        ensemble_n = max(20.0, 10.0 * husimi_moment)
    delta_bias = husimi_moment / ensemble_n
    big_l = math.ceil(
        (2.0**-n * ensemble_n**n + delta_bias * np.pi**n)
        / np.pi**n
        * epsilon**-2
        / p_fail
    )
    z = normal_rows(seed, big_l, 2 * n) * math.sqrt(ensemble_n / 2.0)
    xis = z[:, :n] + 1j * z[:, n:]
    amps = sup.coherent_amplitude_batch(xis)
    counters.tally.samples += big_l
    eta = float(ensemble_n**n * np.mean(np.abs(amps) ** 2))
    lo = (1.0 - epsilon - delta_bias) * eta
    hi = (1.0 + epsilon + delta_bias) * eta
    return NormEstimate(eta, big_l, ensemble_n, epsilon, p_fail, delta_bias, seed, (lo, hi))


def approx_born(
    sup: Superposition,
    outcome,
    delta: float,
    epsilon: float,
    p_fail: float,
    seed: int = 0,
    ensemble_n: float | None = None,
    husimi_moment: float | None = None,
) -> BornEstimate:
    """Linear-scaling Born density: sparsify, then Monte-Carlo normalize.

    Total amplitude-evaluation cost is O(k + L k) with k the sparsification
    count and L the norm-estimation samples; no rank^2 term appears.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    child = stream(seed, 0).integers(0, 2**62, size=2)
    omega_state = sparsify(sup, SparsifyPlan(delta, int(child[0])))
    norm = fast_norm(
        omega_state,
        epsilon,
        p_fail,
        ensemble_n=ensemble_n,
        seed=int(child[1]),
        husimi_moment=husimi_moment,
    )
    amp = omega_state.coherent_amplitude(outcome)
    numerator = abs(amp) ** 2
    value = _clamp_density(numerator / (np.pi**sup.n * norm.eta))
    rel = epsilon + norm.delta_bias
    band = (
        numerator / (np.pi**sup.n * norm.eta * (1.0 + rel)),
        numerator / (np.pi**sup.n * norm.eta * max(1.0 - rel, 1e-12)),
    )
    return BornEstimate(value, "sparsified", numerator, norm.eta, band, seed)


# ---------------------------------------------------------------------------
# concentration diagnostics


@dataclass(frozen=True)
class TailReport:
    frequency: float
    bound: float
    fidelity_used: float
    trials: int
    threshold_exceedances: int


def gaussian_fidelity_lower_bound(sup: Superposition) -> float:
    """max_i |<psi|G_i>|^2, a lower bound on the Gaussian fidelity of psi."""
    c = sup.coefficients()
    overlaps = sup.gram @ c  # row i: <G_i|psi>
    nsq = sup.norm_squared()
    return float(np.max(np.abs(overlaps)) ** 2 / nsq)


def hoeffding_tail_check(
    sup: Superposition,
    delta: float,
    trials: int,
    seed: int = 0,
    fidelity_bound: float | None = None,
) -> TailReport:
    """Empirical check of the sparsification concentration inequality.

    Counts how often ||psi - Omega||^2 exceeds <Omega|Omega> - 1 + delta^2
    over seeded sparsification runs and compares against the Hoeffding bound
    2 exp(-delta^2 / (8 F)); F defaults to the best-term fidelity proxy.
    """
    f_used = fidelity_bound if fidelity_bound is not None else gaussian_fidelity_lower_bound(sup)
    bound = min(1.0, 2.0 * math.exp(-(delta**2) / (8.0 * f_used)))
    nsq_psi = sup.norm_squared()
    exceed = 0
    for t in range(trials):
        omega_state = sparsify(sup, SparsifyPlan(delta, seed + t))
        nsq_omega = omega_state.norm_squared()
        cross = cross_overlap(sup, omega_state)
        dist_sq = nsq_psi + nsq_omega - 2.0 * cross.real
        if dist_sq > nsq_omega - 1.0 + delta**2:
            exceed += 1
    return TailReport(exceed / trials, bound, f_used, trials, exceed)


def sample_ensemble_member(ensemble, seed: int = 0) -> Superposition:
    """Draw one pure-state member (p_j, psi_j) of a mixed-state ensemble."""
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise ValueError("ensemble probabilities must be nonnegative and sum to 1")
    rng = stream(seed, 0)
    counters.tally.samples += 1
    j = int(rng.choice(len(ensemble), p=probs))
    return ensemble[j][1]
