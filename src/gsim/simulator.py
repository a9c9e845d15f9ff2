"""Exact and linear-scaling approximate simulation of Gaussian circuits on
superpositions of Gaussian states.

The exact Born evaluator costs O(rank) amplitude evaluations for the
numerator; its norm comes from the state's Gram, which costs O(rank^2)
pairwise overlaps once per state (rank - 1 for a library group orbit) and
which `evolve` carries along, since Gaussian unitaries preserve overlaps, so
each later gate and Born evaluation costs O(rank).  The approximate
pipeline sparsifies the decomposition down to k = ceil((l1/delta)^2) terms
and replaces the Gram norm with a Monte-Carlo estimate from coherent probes
drawn from the decomposition's own Husimi mixture, making the total cost
linear in the rank.
Every routine works on a superposition's stacked triples at once: no loop
runs over its terms.  A sparsified state keeps one triple per distinct draw,
so its cost follows the K <= k distinct terms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters, states, stellar
from .exceptions import DimensionMismatch
from .gaussian import check_normalised
from .phase import GaussianUnitary
from .rng import box_muller, stream
from .states import Superposition
from .stellar import KERNEL_ULPS, LOG_SUM_ULPS, UNIT_ROUNDOFF


def evolve(sup: Superposition, op: GaussianUnitary) -> Superposition:
    """Gaussian unitary folded over the whole stack of triples, then one
    stacked normalisation check; coefficients, rank and l1 are untouched.
    Each gate still runs its own checks in `stellar.apply_gate` (a squeeze's
    condition number and half-plane test), so a unitary of many gates costs
    one normalisation check and one new state for all of them: the CLI
    evolves each run of consecutive gate ops as one unitary.
    Since <G_i|U^+ U|G_j> = <G_i|G_j>, the result shares the Gram of ``sup``
    once that is computed, else takes a lazy cell of the same kind
    (`GramCell.carried_to`): evolving computes no Gram."""
    triples = op.apply(sup.triples)
    check_normalised(triples)
    return Superposition.from_stack(sup.coeffs, triples, sup.gram_cell.carried_to(triples))


# ---------------------------------------------------------------------------
# heterodyne conditioning


def kept_modes(n: int, measured: list, n_outcomes: int) -> list:
    """Modes that conditioning an n-mode state on the ``measured`` modes, at
    an outcome of ``n_outcomes`` entries, leaves; raises on a bad mode list."""
    if any(m < 0 or m >= n for m in measured):
        raise ValueError(f"measured modes {measured}: mode index outside 0..{n - 1}")
    if len(set(measured)) != len(measured):
        raise ValueError("measured modes must be distinct")
    if n_outcomes != len(measured):
        raise DimensionMismatch("outcome dimension does not match measured modes")
    kept = [m for m in range(n) if m not in measured]
    if not kept:
        raise ValueError("conditioning must leave at least one mode")
    return kept


def condition(sup: Superposition, modes, outcome):
    """Project the measured modes onto the heterodyne outcome <xi|.

    Each pure Gaussian term conditions to a pure Gaussian on the kept modes;
    its coefficient picks up the (phase-sensitive) partial amplitude, of
    modulus nu_i with log nu_i = Re log c_i - log_magnitude(A_i, b_i) of the
    reduced triple.  Coefficients are scaled by nu_i / max_j nu_j, so a term
    whose nu_i underflows survives; only one whose ratio underflows is
    dropped.  The return value is (conditioned superposition, log_scale):
    the weight ||(1 (x) <xi|) psi||^2 is state.norm_squared() e^log_scale,
    and the heterodyne outcome density over d^2m(xi) is weight / (pi^m
    ||psi||^2).  Conditioning forms no Gram: the conditioned state computes
    its own, a general one, when its norm is first read.  Rank never
    increases.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    kb = list(modes)
    ka = kept_modes(sup.n, kb, outcome.shape[0])
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
    return Superposition.from_stack(sup.coeffs[keep] * scale[keep], reduced), 2.0 * shift


def heterodyne_density(sup: Superposition, modes, outcome) -> float:
    """Outcome density over d^2m(xi) for heterodyning a subset of modes:
    the weight state.norm_squared() e^log_scale of `condition` over
    pi^m ||psi||^2; both exact norms raise IllConditioned where their
    rounding bounds reach them."""
    state, log_scale = condition(sup, modes, outcome)
    m = len(tuple(modes))
    return state.norm_squared() * np.exp(log_scale) / (np.pi**m * sup.norm_squared())


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
    factor 2^n.  ``error_band`` bounds the rounding: the amplitude sum is
    off by at most u sum_j (KERNEL_ULPS + K + LOG_SUM_ULPS S_j) |c_j a_j|, S_j from
    `stellar.amplitude_log_sums`, and the norm by its rounding bound
    ``sup.gram_form[1]``; `Superposition.norm_squared` raises IllConditioned
    once that bound reaches the norm itself.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    if outcome.shape[0] != sup.n:
        raise DimensionMismatch("outcome dimension does not match state")
    amps = stellar.coherent_amplitude(sup.triples, outcome)
    amp = abs(complex(sup.coeffs @ amps))
    slack = KERNEL_ULPS + sup.rank + LOG_SUM_ULPS * stellar.amplitude_log_sums(sup.triples, outcome)
    amp_err = UNIT_ROUNDOFF * float(np.abs(sup.coeffs) @ (slack * np.abs(amps)))
    norm_sq, norm_err = sup.norm_squared(), sup.gram_form[1]
    scale = np.pi**sup.n
    value = _clamp_density(amp**2 / (scale * norm_sq))
    lo = max(amp - amp_err, 0.0) ** 2 / (scale * (norm_sq + norm_err))
    return BornEstimate(value, "exact", amp**2, norm_sq, (lo, (amp + amp_err) ** 2 / (scale * (norm_sq - norm_err))))


# ---------------------------------------------------------------------------
# sparsification


@dataclass(frozen=True)
class SparsifyPlan:
    """Sample count k = ceil((l1 / delta)^2) for a target 2-norm error delta."""

    delta: float
    seed: int
    k: int | None = None

    def __post_init__(self):
        states._check_delta(self.delta)

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
    epsilon: float
    p_fail: float
    seed: int
    band: tuple


def fast_norm(sup: Superposition, epsilon: float, p_fail: float, seed: int = 0) -> NormEstimate:
    """Monte-Carlo estimate of <psi|psi> linear in the rank, from amplitudes only.

    Probes xi come from the decomposition's own Husimi mixture (Bravyi et
    al., Quantum 3, 181 (2019); ``_husimi_probes``).  Each has the value
    Z = |sum_j c_j a_j|^2 / (l1 sum_j |c_j| |a_j|^2), a_j = <xi|G_j>, in
    [0, 1] on any number of modes by Cauchy-Schwarz, with mean |psi|^2 / l1^2.
    At the first probe N where the sum of Z reaches
    Upsilon_1 = 1 + (1 + eps) 4 (e - 2) ln(2 / p_fail) / eps^2, the estimate
    eta = Upsilon_1 l1^2 / N lies within (1 +/- eps) |psi|^2 with probability
    at least 1 - p_fail (Dagum, Karp, Luby and Ross, SIAM J. Comput. 29,
    1484 (2000)); ``band`` is (eta / (1 + eps), eta / (1 - eps)).  The
    expected N is at most Upsilon_1 l1^2 / |psi|^2, about 1167 times the
    extent bound at the CLI defaults.  Unless the K = rank terms cancel,
    |psi|^2 >= l1^2 / K and N < Upsilon_1 K / (1 - eps) with probability at
    least 1 - p_fail; past that cap the probes have cost more amplitudes than
    a general exact Gram's K (K - 1) / 2 overlaps (an orbit's costs K - 1,
    and a Gram the state already carries none), so the exact norm is
    returned, `Superposition.norm_squared` banded by its rounding bound
    ``sup.gram_form[1]``: a cancelling state (an odd cat at small alpha) ends
    in bounded time, and raises IllConditioned where that bound reaches the
    norm.  Probes are evaluated in blocks of AMPLITUDE_CHUNK // rank rows, N
    is found to the row, and probe i is row i of the one stream (seed, 0), so
    the result does not depend on the block size.
    """
    if not (0 < epsilon < 1 and 0 < p_fail < 1):
        raise ValueError("epsilon and p_fail must lie in (0, 1)")
    t, coeffs, l1 = sup.triples, sup.coeffs, sup.l1
    weights = np.abs(coeffs)
    upsilon = 1.0 + (1.0 + epsilon) * 4.0 * (math.e - 2.0) * math.log(2.0 / p_fail) / epsilon**2
    cap = math.ceil(upsilon * sup.rank / (1.0 - epsilon))
    total, evaluated = 0.0, 0
    for xis in _husimi_probes(sup, seed, cap, max(1, states.AMPLITUDE_CHUNK // sup.rank)):
        amps = stellar.coherent_amplitude_batch(t, xis)
        den = np.abs(amps) ** 2 @ weights
        if not np.all(den > 0):
            raise ArithmeticError("every term's amplitude underflowed at a probe drawn from their mixture")
        z = np.abs(amps @ coeffs) ** 2 / (l1 * den)
        # one sequential sum from the running total, so the crossing index
        # does not depend on the block size
        running = np.cumsum(np.concatenate(([total], z)))[1:]
        total = running[-1]
        evaluated += len(z)
        if total >= upsilon:
            break
    counters.tally.samples += evaluated
    if total < upsilon:
        nsq, err = sup.norm_squared(), sup.gram_form[1]
        return NormEstimate(nsq, evaluated, epsilon, p_fail, seed, (nsq - err, nsq + err))
    big_n = evaluated - len(z) + int(np.argmax(running >= upsilon)) + 1
    eta = upsilon * l1**2 / big_n
    return NormEstimate(eta, big_n, epsilon, p_fail, seed, (eta / (1.0 + epsilon), eta / (1.0 - epsilon)))


def _husimi_probes(sup: Superposition, seed: int, count: int, rows: int):
    """The first ``count`` probes from the Husimi mixture of ``sup``, yielded
    ``rows`` at a time.  Probe i is row i of the 2n + 1 uniforms per row read
    in order from stream (seed, 0): the last picks term j with probability
    |c_j| / l1 and the Box-Muller normals z of the others give
    xi = mean_j + L_j z, L_j the Cholesky factor of the term's Husimi
    covariance.  Drawn AMPLITUDE_CHUNK at a time, which bounds temporaries;
    the width is fixed, so probe i depends only on (seed, i).
    """
    n, chunk = sup.n, states.AMPLITUDE_CHUNK
    cdf = np.cumsum(np.abs(sup.coeffs))
    mean, cov = stellar.husimi_gaussian(sup.triples)
    factor = np.linalg.cholesky(cov)
    uniforms = stream(seed, 0)
    for start in range(0, count, chunk):
        u = uniforms.random((min(chunk, count - start), 2 * n + 1))
        j = np.minimum(np.searchsorted(cdf, u[:, -1] * cdf[-1], side="right"), sup.rank - 1)
        v = mean[j] + np.einsum("rij,rj->ri", factor[j], box_muller(u[:, :-1]))
        xis = v[:, :n] + 1j * v[:, n:]
        del u, j, v  # so that only the probes stay alive while the next chunk is drawn
        for s in range(0, len(xis), rows):
            yield xis[s : s + rows]


def approx_born(
    sup: Superposition, outcome, delta: float, epsilon: float, p_fail: float, seed: int = 0
) -> BornEstimate:
    """Linear-scaling Born density: sparsify, then Monte-Carlo normalize.

    Total amplitude-evaluation cost is O(k + N K) with k the sparsification
    count, K <= k its distinct terms and N the norm-estimation probes, which
    grow with the sparsified state's extent bound; no rank^2 term appears.
    ``error_band`` is (value (1 - eps), value (1 + eps)), the range of the
    sparsified state's Born density when its norm lies in the fast norm's
    band.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    child = stream(seed, 0).integers(0, 2**62, size=2)
    omega_state = sparsify(sup, SparsifyPlan(delta, int(child[0])))
    norm = fast_norm(omega_state, epsilon, p_fail, seed=int(child[1]))
    amp = omega_state.coherent_amplitude(outcome)
    numerator = abs(amp) ** 2
    value = _clamp_density(numerator / (np.pi**sup.n * norm.eta))
    band = (value * (1.0 - epsilon), value * (1.0 + epsilon))
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
