"""Exact and linear-scaling approximate simulation of Gaussian circuits on
superpositions of Gaussian states.

The exact Born evaluator costs O(rank) amplitude evaluations for the
numerator; its norm comes from the state's Gram, which costs O(rank^2)
pairwise overlaps once per state (rank - 1 for a library group orbit) and
which `evolve` carries along, since Gaussian unitaries preserve overlaps, so
each later gate and Born evaluation costs O(rank).  The approximate
pipeline sparsifies the decomposition down to k = ceil((l1/delta)^2) terms
and takes the norm by `fast_norm`: a Monte-Carlo estimate from coherent
probes drawn from the decomposition's own Husimi mixture, or the exact Gram
where its pending pairs cost fewer amplitude evaluations than the fewest
probes, making the total cost linear in the rank.  `condition` heterodynes
some modes in O(rank);
`heterodyne_density`, the Born rule after a channel's dilation, adds the
Gram norms of the conditioned and the input state.
Every routine works on a superposition's stacked triples at once: no loop
runs over its terms.  A sparsified state keeps one triple per distinct draw,
so its cost follows the K <= k distinct terms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters, states, stellar
from .exceptions import DimensionMismatch, IllConditioned
from .rng import box_muller, stream
from .states import Superposition
from .stellar import GaussianUnitary


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
    stellar.check_normalised(triples)
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
    if np.isnan(shift):
        raise FloatingPointError("a conditioning weight is not a number")
    scale = np.exp(log_nu - shift)
    keep = scale > 0.0
    if not keep.any():
        raise ValueError("all terms annihilated by the conditioning outcome")
    reduced = stellar.StellarParams(a[keep], b[keep], (log_c - log_nu)[keep])
    # a Python float: its product overflows to -inf at a far outcome without a numpy warning
    return Superposition.from_stack(sup.coeffs[keep] * scale[keep], reduced), 2.0 * float(shift)


# ---------------------------------------------------------------------------
# Born probabilities


@dataclass(frozen=True)
class BornEstimate:
    value: float
    error_band: tuple


def exact_born(sup: Superposition, outcome) -> BornEstimate:
    """Heterodyne Born density at a coherent outcome, coherent-POVM convention.

    density = |<x|psi>|^2 / (pi^n <psi|psi>), with the numerator from one
    O(rank) product of the outcome's monomials with the state's cached
    ``amplitude_table``, row 0 of a block of one, and the norm from the
    exact Gram, so a second outcome on the same state costs that product
    only.  Relative to the quadrature-outcome general-dyne density,
    this carries the Jacobian factor 2^n.  ``error_band`` bounds the
    rounding: the amplitude sum is off by at most sum_j |c_j| (e_j + u K |a_j|),
    e_j the bound that the same product returns with a_j and u K |a_j| that of
    the K-term sum, and the norm lies in `Superposition.norm_band`, which
    raises IllConditioned once its rounding bound reaches the norm itself; so
    does a bound whose band overflows.  The band, like `heterodyne_density`'s,
    bounds the rounding of this evaluation on the stored triples, not of the gate fold
    that built them: a one-mode vacuum under squeeze, displace, phase, squeeze and loss
    (seed 149) gets a band 2 ulp wide, and a fold that rounds 1 ulp differently leaves it by 1-2 ulp.
    """
    (amps,), (bounds,) = sup.amplitude_table.amplitudes(np.atleast_1d(outcome)[None])
    amp = abs(complex(sup.coeffs @ amps))
    amp_err = float(np.abs(sup.coeffs) @ (bounds + stellar.UNIT_ROUNDOFF * sup.rank * np.abs(amps)))
    norm_sq, (norm_lo, norm_hi) = sup.norm_squared(), sup.norm_band
    scale = np.pi**sup.n
    try:
        band = (max(amp - amp_err, 0.0) ** 2 / (scale * norm_hi), (amp + amp_err) ** 2 / (scale * norm_lo))
    except OverflowError:
        raise IllConditioned(f"amplitude {amp:.3g} has a rounding bound {amp_err:.3g} whose band overflows") from None
    return BornEstimate(amp**2 / (scale * norm_sq), band)


def heterodyne_density(sup: Superposition, modes, outcome) -> BornEstimate:
    """Outcome density over d^2m(xi) for heterodyning a subset of modes, the
    marginal over the others: the weight state.norm_squared() e^log_scale of
    `condition` over pi^m ||psi||^2.  ``error_band`` takes each norm at
    the end of its `Superposition.norm_band` that widens the band; both
    bands raise IllConditioned where their rounding bounds reach the norms."""
    state, log_scale = condition(sup, modes, outcome)
    num, norm_sq = state.norm_squared(), sup.norm_squared()
    (num_lo, num_hi), (den_lo, den_hi) = state.norm_band, sup.norm_band
    scale = np.exp(log_scale) / np.pi ** len(tuple(modes))
    return BornEstimate(num * scale / norm_sq, (num_lo * scale / den_hi, num_hi * scale / den_lo))


# ---------------------------------------------------------------------------
# sparsification


MAX_SAMPLES = 2**63 - 1  # numpy's multinomial takes its count as int64


def sample_count(l1: float, delta: float) -> int:
    """Sample count k = ceil((l1 / delta)^2) for a target 2-norm error delta;
    OverflowError past MAX_SAMPLES."""
    states._check_delta(delta)
    ratio = l1 / delta
    k = ratio * ratio  # a float ** 2 would raise on overflow, not give inf
    if not k <= MAX_SAMPLES:
        raise OverflowError(
            f"sample count k = (l1/delta)^2 = {k:.3g} exceeds 2^63 - 1 (l1 = {l1:.6g}, delta = {delta:.6g})"
        )
    return max(1, math.ceil(k))


def sparsify(sup: Superposition, delta: float, seed: int) -> Superposition:
    """IID importance sampling of decomposition terms, k = `sample_count`
    draws with p(i) = |c_i| / l1 from stream (seed, 0).

    Every draw contributes l1/k with the coefficient phase folded into the
    term's gauge, so E<sparsified|psi> = 1 for normalized input.  A term
    drawn m times is kept once with coefficient m l1/k: the result has one
    triple per distinct draw, K <= k of them.  The k draws are taken as
    their multinomial counts, so memory is O(rank) whatever k is.
    """
    k = sample_count(sup.l1, delta)
    counts = stream(seed, 0).multinomial(k, np.abs(sup.coeffs) / sup.l1)
    counters.tally.samples += k
    used = np.flatnonzero(counts)
    t = sup.triples[used]
    folded = stellar.StellarParams(t.a, t.b, t.log_c + 1j * np.angle(sup.coeffs[used]))
    return Superposition.from_stack(counts[used] * (sup.l1 / k), folded)


def cross_overlap(a: Superposition, b: Superposition) -> complex:
    """<a|b> between two superpositions from their rank_a x rank_b overlaps."""
    return complex(np.conj(a.coeffs) @ stellar.overlap_matrix(a.triples, b.triples) @ b.coeffs)


# ---------------------------------------------------------------------------
# fast norm estimation


# Amplitude evaluations that one Gram pair costs, the price by which
# `fast_norm` weighs the exact Gram's pending overlaps against its fewest
# probes: index 0 for the one-mode overlap kernel, which is closed form, and 1
# from two modes up, where `stellar._contract` calls LAPACK.  Measured on 2
# cores as the time per pair of a fresh general Gram form over the time per
# amplitude of a full probe run on the same state, at the CLI defaults (least
# time of 15 runs): one mode 8-13 on general fock1 rings of rank 32-64, around
# the crossover at rank 56, and 5-29 away from it (rings of rank 16 and 256,
# grids at delta 0.3 and 0.1); two and three modes 73-141 on entangled rings
# of rank 8-32, around the crossover at rank 12.  Both prices still lie above
# the whole measured range, so the router errs toward the probes (at one mode
# by about 3x).
PAIR_PRICE = (42, 210)


@dataclass(frozen=True)
class NormEstimate:
    """A norm estimate ``eta`` with its ``band`` and the probes ``samples``
    that it took; ``samples`` 0 means the exact Gram form, banded by
    `Superposition.norm_band`."""

    eta: float
    samples: int
    band: tuple


def _upsilon(epsilon: float, p_fail: float) -> float:
    """The stopping threshold Upsilon_1 = 1 + (1 + eps) 4 (e - 2) ln(2 / p_fail) / eps^2;
    ValueError where it overflows (eps below about 1e-154)."""
    if not (0 < epsilon < 1 and 0 < p_fail < 1):
        raise ValueError("epsilon and p_fail must lie in (0, 1)")
    square = epsilon**2
    upsilon = 1.0 + (1.0 + epsilon) * 4.0 * (math.e - 2.0) * math.log(2.0 / p_fail) / square if square else math.inf
    if not math.isfinite(upsilon):
        raise ValueError(f"epsilon = {epsilon!r} is too small: the stopping threshold Upsilon_1 overflows")
    return upsilon


def fast_norm(sup: Superposition, epsilon: float, p_fail: float, seed: int = 0) -> NormEstimate:
    """<psi|psi> by the cheaper of two routes, priced in counted work.

    A probe run (`probe_norm`) evaluates at least ceil(Upsilon_1) K
    amplitudes, K = rank, as no fewer probes can reach its stopping sum.  The
    exact Gram form still has to evaluate ``sup.gram_cell.pending_pairs``
    overlaps: none once the state's cell holds its Gram, K - 1 for an orbit,
    K(K - 1)/2 for a general stack.  Priced at PAIR_PRICE amplitudes each,
    if they cost less than those fewest probes the exact norm is returned in
    its `Superposition.norm_band`, with ``samples`` 0 and no probe drawn;
    otherwise the probes run.  The Gram route thus costs less counted work
    than any probe run could, and the norm stays linear in the rank.  The
    route depends on counts and fixed constants only, never on a timing, so
    the output stays deterministic for a given state and seed.
    """
    upsilon = _upsilon(epsilon, p_fail)
    if sup.gram_cell.pending_pairs * PAIR_PRICE[sup.n > 1] < math.ceil(upsilon) * sup.rank:
        return NormEstimate(sup.norm_squared(), 0, sup.norm_band)
    return probe_norm(sup, epsilon, p_fail, seed)


def probe_norm(sup: Superposition, epsilon: float, p_fail: float, seed: int = 0) -> NormEstimate:
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
    returned, `Superposition.norm_squared` in its `Superposition.norm_band`:
    a cancelling state (an odd cat at small alpha) ends in bounded time, and
    raises IllConditioned where that band's rounding bound reaches the norm.
    Probes are drawn and evaluated in blocks sized by the stopping
    rule: the first holds ceil(Upsilon_1) probes, as no fewer can reach it
    with Z <= 1, and each later one the count (Upsilon_1 - S) n / S that the
    running mean S / n of the n probes so far predicts is still missing, plus
    32; no block exceeds AMPLITUDE_CHUNK // rank rows or the cap.  Only the
    probes evaluated are drawn, N is found to the row in one sequential sum,
    and probe i is row i of the one stream (seed, 0), so the result does not
    depend on the block sizes, nor on Z <= 1 holding to the last bit; a run
    overshoots N by fewer probes than its last block holds.  The state's
    ``amplitude_table`` is put in real form once per call, and each block's Z
    is one real product with it and a few vectorised passes
    (`stellar.ProbeValues`).
    """
    upsilon = _upsilon(epsilon, p_fail)
    cap = math.ceil(upsilon * sup.rank / (1.0 - epsilon))
    budget = max(1, states.AMPLITUDE_CHUNK // sup.rank)
    draw = _husimi_probes(sup, seed)
    probe_values = stellar.ProbeValues(sup.amplitude_table, sup.coeffs, sup.l1)
    total, evaluated, want = 0.0, 0, upsilon  # Z <= 1, so no fewer probes can stop
    while True:
        z = probe_values.block(draw(min(math.ceil(min(want, budget)), cap - evaluated)))
        # one sequential sum from the running total, so the crossing index
        # does not depend on the block sizes
        running = np.cumsum(np.concatenate(([total], z)))[1:]
        total = running[-1]
        evaluated += len(z)
        if total >= upsilon or evaluated == cap:
            break
        # the probes that the running mean predicts the sum still lacks, and a margin
        want = (upsilon - total) * evaluated / total + 32 if total > 0 else budget
    counters.tally.samples += evaluated
    if total < upsilon:
        return NormEstimate(sup.norm_squared(), evaluated, sup.norm_band)
    big_n = evaluated - len(z) + int(np.argmax(running >= upsilon)) + 1
    eta = upsilon * sup.l1**2 / big_n
    return NormEstimate(eta, big_n, (eta / (1.0 + epsilon), eta / (1.0 - epsilon)))


def _husimi_probes(sup: Superposition, seed: int):
    """A function ``draw(rows)`` that returns the next ``rows`` probes (rows,
    n) from the Husimi mixture of ``sup``, drawing exactly those.  Probe i is
    row i of the 2n + 1 uniforms per row read in order from stream (seed, 0):
    the last picks term j with probability |c_j| / l1 and the Box-Muller
    normals z of the others give xi = mean_j + L_j z, L_j the Cholesky factor
    of the term's Husimi covariance.  The width is fixed, so probe i depends
    only on (seed, i), however the draws are sized.
    """
    n, rank = sup.n, sup.rank
    cdf = np.cumsum(np.abs(sup.coeffs))
    mean, cov = stellar.husimi_gaussian(sup.triples)
    factor = np.linalg.cholesky(cov)
    uniforms = stream(seed, 0)

    def draw(rows: int) -> np.ndarray:
        u = uniforms.random((rows, 2 * n + 1))
        j = np.minimum(np.searchsorted(cdf, u[:, -1] * cdf[-1], side="right"), rank - 1)
        v = mean[j] + np.einsum("rij,rj->ri", factor[j], box_muller(u[:, :-1]))
        return v[:, :n] + 1j * v[:, n:]

    return draw


def approx_born(
    sup: Superposition, outcome, delta: float, epsilon: float, p_fail: float, seed: int = 0
) -> BornEstimate:
    """Linear-scaling Born density: sparsify, then Monte-Carlo normalize.

    Total cost is O(k) for the k = `sample_count` draws of the
    sparsification, plus the norm of its K <= k distinct terms: `fast_norm`
    takes their exact Gram only while its K(K - 1)/2 pairs at PAIR_PRICE
    amplitude evaluations each cost less than the ceil(Upsilon_1) K of the
    fewest probes, and else N K amplitudes for N probes, which grow with the
    sparsified state's extent bound; either way linear in K.
    ``error_band`` is (value (1 - eps), value (1 + eps)), the range of the
    sparsified state's Born density when its norm lies in the fast norm's
    band.
    """
    outcome = np.atleast_1d(np.asarray(outcome, dtype=complex))
    child = stream(seed, 0).integers(0, 2**62, size=2)
    omega_state = sparsify(sup, delta, int(child[0]))
    norm = fast_norm(omega_state, epsilon, p_fail, seed=int(child[1]))
    value = abs(omega_state.coherent_amplitude(outcome)) ** 2 / (np.pi**sup.n * norm.eta)
    return BornEstimate(value, (value * (1.0 - epsilon), value * (1.0 + epsilon)))

