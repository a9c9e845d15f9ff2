"""Gaussian decompositions of non-Gaussian states and the associated measures.

A non-Gaussian pure state is stored as a weighted superposition of pure
Gaussian terms with exact relative phases, stored stacked: K coefficients,
one per distinct ket triple, and the triples as one stacked `StellarParams`;
``entries`` and ``terms()`` are views.  The decomposition's term count is the
(witnessed) Gaussian rank; the squared l1 norm of the coefficients after
exact Gram normalization upper-bounds the Gaussian extent.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import stellar
from .exceptions import DimensionMismatch, IllConditioned, InvariantViolation
from .gates import Displace, PhaseShift, Squeeze
from .gaussian import GaussianPure, check_normalised
from .phase import GaussianUnitary, propagate

# squared l1 norm of the optimal single-photon decomposition: 4e/(3 sqrt(3))
FOCK1_EXTENT = 4 * math.e / (3 * math.sqrt(3))
# largest |<1|G>|^2 over Gaussian G, attained by the optimal ring seed
FOCK1_FIDELITY = 3 * math.sqrt(3) / (4 * math.e)
# (probe, term) pairs per block of an amplitude sweep: its ~64 kB temporaries
# stay below glibc's default 128 kB mmap threshold whatever the probe count
# and the rank, so blocks reuse heap memory instead of faulting in new pages;
# the fast norm also draws its probes this many at a time
AMPLITUDE_CHUNK = 1 << 12


class WeightedGaussian(NamedTuple):
    """One (coefficient, term) entry of a superposition."""

    coeff: complex
    term: GaussianPure


def _toeplitz(row, lower) -> np.ndarray:
    """K x K matrix with row[j - i] on and above the diagonal and lower[i - j]
    below it: row i is the window i places left of the centre of
    (lower[K-1], ..., lower[1], row[0], ..., row[K-1])."""
    k = row.shape[0]
    return sliding_window_view(np.concatenate((lower[:0:-1], row)), k)[::-1].copy()


class GramCell:
    """The Gram matrix of a stack of ket triples, computed on first use.

    A Gaussian unitary on every term, a common coefficient scale and
    tensoring every term with one common state keep every overlap, so the
    superpositions derived that way share one cell and one Gram (see
    `carried_to`).  A general stack evaluates its K(K-1)/2 pairs above the
    diagonal.  An ``orbit`` evaluates only the K - 1 overlaps
    r_d = <G_0|G_d> of its first row: its Gram is Hermitian Toeplitz,
    G_ij = r_{j-i} and G_ji = conj(r_{j-i}), as for equally spaced real
    displacements (grid, GKP) and for a cyclic orbit such as a rotation ring,
    whose circulant Gram is Toeplitz too.
    """

    def __init__(self, triples: stellar.StellarParams, orbit: bool = False):
        self.triples, self.orbit = triples, orbit

    def carried_to(self, triples: stellar.StellarParams) -> "GramCell":
        """Cell of a stack with the same pairwise overlaps: this one once its
        Gram is computed, else a fresh lazy cell of the same kind over
        ``triples``.  A derived state's Gram never fills its parent's cell, so
        each derived state costs the same whichever of its siblings was
        evaluated first."""
        return self if "matrix" in vars(self) else GramCell(triples, self.orbit)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The Gram, read-only.  Also sets ``rounding_weights``, the W for
        which u |c|^T W |c| bounds the rounding of c^+ G c for any
        coefficients c: an entry off the diagonal is off by at most
        (KERNEL_ULPS + LOG_SUM_ULPS S_ij) u |G_ij|, S_ij from
        `stellar.state_overlaps` ``with_sums``; the diagonal is pinned to 1;
        the K-term sums add K u |G_ij|."""
        t = self.triples
        k = t.log_c.shape[0]
        if self.orbit:
            row = np.ones(k, dtype=complex)
            row[1:], sums = stellar.state_overlaps(
                t, t, np.zeros(k - 1, dtype=np.intp), np.arange(1, k), with_sums=True
            )
            weights = np.full(k, float(k))
            weights[1:] = np.abs(row[1:]) * (k + stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * sums)
            gram, self.rounding_weights = _toeplitz(row, np.conj(row)), _toeplitz(weights, weights)
        else:
            i, j = np.triu_indices(k, 1)
            gram, self.rounding_weights = np.eye(k, dtype=complex), k * np.eye(k)
            pairs, sums = stellar.state_overlaps(t, t, i, j, with_sums=True)
            gram[i, j], gram[j, i] = pairs, np.conj(pairs)
            weights = np.abs(pairs) * (k + stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * sums)
            self.rounding_weights[i, j] = self.rounding_weights[j, i] = weights
        gram.flags.writeable = False  # shared by every superposition of the cell
        return gram


class Superposition:
    """Pure Gaussian terms sharing one mode count: ``coeffs`` (K,), one per
    triple in the stack ``triples``.

    ``Superposition(entries, l1=)`` stacks (coefficient, term) pairs, one
    triple per distinct term object, without re-checking the terms; entries
    that share a term object add their coefficients.  ``l1`` is the sum of
    the coefficient moduli; a given ``l1`` must equal it to rtol 1e-12.
    """

    def __init__(self, entries, l1=None):
        entries = list(entries)
        if not entries:
            raise ValueError("superposition needs at least one term")
        distinct = {id(term): term for _, term in entries}  # in order of first appearance
        slot = {key: k for k, key in enumerate(distinct)}
        terms = tuple(distinct.values())
        if any(t.n != terms[0].n for t in terms):
            raise DimensionMismatch("terms act on different mode counts")
        stack = [np.array([getattr(t.bargmann, f) for t in terms]) for f in ("a", "b", "log_c")]
        coeffs = np.zeros(len(terms), dtype=complex)
        np.add.at(coeffs, [slot[id(term)] for _, term in entries], [coeff for coeff, _ in entries])
        self._store(coeffs, stellar.StellarParams(*stack), l1)
        self._terms = terms

    @classmethod
    def from_stack(cls, coeffs, triples: stellar.StellarParams, gram_cell=None) -> "Superposition":
        """Superposition over a stack of triples that passed ``check_normalised``.

        ``gram_cell`` shares the Gram of a stack with the same pairwise
        overlaps; without one the Gram is a fresh general one.
        """
        sup = cls.__new__(cls)
        sup._store(np.asarray(coeffs, dtype=complex), triples, gram_cell=gram_cell)
        return sup

    def _store(self, coeffs, triples, l1=None, gram_cell=None):
        if not np.all(np.isfinite(np.abs(coeffs))):
            raise ValueError("coefficient must be finite")
        if coeffs.flags.writeable:
            coeffs = coeffs.copy()
            coeffs.flags.writeable = False  # so `gram_form` cannot go stale
        self.coeffs, self.triples = coeffs, triples
        self.gram_cell = gram_cell if gram_cell is not None else GramCell(triples)
        self.n = triples.modes
        self.l1 = float(np.sum(np.abs(coeffs)))
        if l1 is not None and not abs(float(l1) - self.l1) <= 1e-12 * self.l1:
            raise ValueError(f"l1 = {float(l1)!r} differs from the sum of coefficient moduli {self.l1!r}")

    @property
    def rank(self) -> int:
        return self.coeffs.shape[0]

    def coefficients(self) -> np.ndarray:
        return self.coeffs.copy()

    @cached_property
    def _terms(self) -> tuple:
        return tuple(GaussianPure.from_checked_triple(self.triples[k]) for k in range(self.rank))

    @cached_property
    def entries(self) -> tuple:
        """(coefficient, term) per triple."""
        return tuple(WeightedGaussian(complex(c), t) for c, t in zip(self.coeffs, self._terms))

    def terms(self):
        return list(self._terms)

    @cached_property
    def gram(self) -> np.ndarray:
        """Exact pairwise overlap matrix; diagonal pinned to 1 (terms normalized).

        The matrix of ``gram_cell``, computed on first use by any of the
        superpositions that share the cell (see `GramCell`); read-only.
        """
        return self.gram_cell.matrix

    @cached_property
    def gram_form(self) -> tuple:
        """(c^+ G c, u |c|^T W |c|): the Gram form of the coefficients and its
        rounding bound, W the cell's ``rounding_weights`` (see
        `GramCell.matrix`).  O(rank^2) once per superposition; every later
        norm reads it back."""
        c, weights = self.coeffs, np.abs(self.coeffs)
        value = float(np.real(np.conj(c) @ self.gram @ c))
        return value, stellar.UNIT_ROUNDOFF * float(weights @ self.gram_cell.rounding_weights @ weights)

    def norm_squared(self) -> float:
        """c^+ G c if it lies outside its rounding bound ``gram_form[1]``: within
        it no digit is correct (IllConditioned); below minus it the phases are corrupted."""
        value, bound = self.gram_form
        if value < -bound:
            raise InvariantViolation(f"Gram form {value:.3g} below minus its rounding bound {bound:.3g}; phases corrupted")
        if bound >= value:
            raise IllConditioned(f"Gram norm {value:.3g} within its rounding bound {bound:.3g} (l1^2 = {self.l1**2:.3g})")
        return value

    def coherent_amplitude(self, xi) -> complex:
        """<xi|psi> from one stacked evaluation; linear in the rank."""
        return complex(self.coeffs @ stellar.coherent_amplitude(self.triples, xi))

    def coherent_amplitude_batch(self, xis) -> np.ndarray:
        """<xi|psi> for a stack of outcomes (L, n); costs L * rank evaluations."""
        xis = np.asarray(xis, dtype=complex)
        rows = max(1, AMPLITUDE_CHUNK // self.rank)
        total = np.empty(xis.shape[0], dtype=complex)
        for s in range(0, max(xis.shape[0], 1), rows):
            total[s : s + rows] = stellar.coherent_amplitude_batch(self.triples, xis[s : s + rows]) @ self.coeffs
        return total

    def mean_photon_husimi(self) -> float:
        """Anti-normally-ordered moment <n> + n_modes of the normalized state.

        The Husimi second moment, a measure of the state that no estimator
        uses: the Gram norm and a higher-order central difference of the
        global-phase generating function g(t) = <psi|e^{i t n_total}|psi>,
        four rank x rank overlap kernels.
        """
        t, coeffs, k = self.triples, self.coeffs, self.rank
        i, j = np.divmod(np.arange(k * k), k)

        def g(time: float) -> complex:
            # e^{i t n_total} maps the ket triple (A, b, c) to (e^{2it} A, e^{it} b, c)
            ph = np.exp(1j * time)
            turned = stellar.StellarParams(ph * ph * t.a, ph * t.b, t.log_c)
            pairs = stellar.state_overlaps(t, turned, i, j)
            return complex(np.conj(coeffs) @ pairs.reshape(k, k) @ coeffs)

        h = 1e-3
        # five-point first derivative, O(h^4)
        d1 = (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)
        return max(float(np.imag(d1) / self.norm_squared()), 0.0) + self.n


def single_gaussian(term: GaussianPure) -> Superposition:
    return Superposition([WeightedGaussian(1.0 + 0.0j, term)])


def _normalised(coeffs, terms: stellar.StellarParams) -> Superposition:
    """Superposition of the distinct orbit ``terms``, scaled to unit norm by
    its exact Gram, which the scaled state keeps."""
    raw = Superposition.from_stack(coeffs, terms, GramCell(terms, orbit=True))
    return Superposition.from_stack(coeffs * (1.0 / np.sqrt(raw.norm_squared())), terms, raw.gram_cell)


def _displaced_stack(alphas, first=()) -> stellar.StellarParams:
    """Checked triples D(alpha_i) G|0> of one-mode gates ``first`` = G, one per alpha."""
    ket = GaussianPure.vacuum(1).bargmann
    for gate in first:
        ket = stellar.apply_gate(gate, ket, 1)
    copies = ket[None][np.zeros(len(alphas), dtype=np.intp)]
    terms = stellar.apply_gate(Displace(0, alphas), copies, 1)
    check_normalised(terms)
    return terms


# ---------------------------------------------------------------------------
# decomposition library


def coherent_ring_seed() -> GaussianPure:
    """Coherent seed |alpha=1> maximizing |<1|alpha>| among coherent states."""
    return GaussianPure.coherent([1.0])


def optimal_fock1_seed() -> GaussianPure:
    """Displaced squeezed seed attaining the maximal |<1|G>|^2 = 3*sqrt(3)/(4e).

    The optimum sits at squeezing artanh(1/2) = ln(sqrt 3) along q and squared
    displacement 2/3 (real amplitude sqrt(2/3)); verified independently by the
    derivative-free optimizer and the Fock oracle.
    """
    alpha = math.sqrt(2.0 / 3.0)
    r = math.log(math.sqrt(3.0))
    op = GaussianUnitary.from_gates([Squeeze(0, r), Displace(0, alpha)], 1)
    return propagate(GaussianPure.vacuum(1), op)


def seed_fock1_amplitude(seed: GaussianPure) -> complex:
    """Closed-form <1|seed> from the holomorphic triple (c * b)."""
    return stellar.fock_amplitude(seed.bargmann, 1)


def fock1_ring(seed: GaussianPure, big_n: int = 16) -> Superposition:
    """Phase-shifted ring approximating the single-photon state.

    Terms m = 0..2N-1 carry rotations by pi m / N and coefficients
    e^{-i pi m / N} / (2N <1|seed>), so photon numbers 1 mod 2N survive the
    sum and fidelity to the single photon approaches 1 as N grows
    (contamination starts at Fock level 2N + 1).  The coefficient phase sign
    is fixed by requiring sum_m e^{i m pi (n - 1) / N} to keep n = 1, which a
    norm check against the oracle confirms.
    """
    if big_n < 2:
        raise ValueError("ring size must be at least 2")
    if seed.n != 1:
        raise DimensionMismatch("ring seeds are single-mode")
    amp1 = seed_fock1_amplitude(seed)
    if abs(amp1) < 1e-12:
        raise ValueError("seed has vanishing single-photon amplitude")
    theta = np.pi * np.arange(2 * big_n) / big_n
    copies = seed.bargmann[None][np.zeros(2 * big_n, dtype=np.intp)]
    ring = stellar.apply_gate(PhaseShift(0, theta), copies, 1)
    check_normalised(ring)
    return Superposition.from_stack(np.exp(-1j * theta) / (2 * big_n * amp1), ring, GramCell(ring, orbit=True))


def cat_state(alpha: complex, parity: int = +1) -> Superposition:
    """Even (+1) or odd (-1) cat state: (|a> +/- |-a>) / sqrt(N)."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    alpha = complex(alpha)
    if alpha == 0:
        if parity == -1:
            raise ValueError("odd cat state vanishes at alpha = 0")
        return single_gaussian(GaussianPure.vacuum(1))
    x = -2.0 * abs(alpha) ** 2  # the odd norm 2 (1 - e^x) through expm1 keeps its digits at small |a|
    coeff = 1.0 / np.sqrt(2.0 * (1.0 + np.exp(x)) if parity == 1 else -2.0 * np.expm1(x))
    terms = (GaussianPure.coherent([alpha]), GaussianPure.coherent([-alpha]))
    return Superposition(zip((coeff, parity * coeff), terms))


def rotational_code(big_m: int, mu: int, alpha: complex) -> Superposition:
    """Codeword of the 2M-fold rotation code over coherent states.

    Terms are e^{i pi m n / M}|alpha> with signs (-1)^{mu m}; the overall
    scale comes from the exact Gram norm.
    """
    if big_m < 1 or mu not in (0, 1):
        raise ValueError("need M >= 1 and mu in {0, 1}")
    m = np.arange(2 * big_m)
    return _normalised((-1.0) ** (mu * m) + 0.0j, _displaced_stack(alpha * np.exp(1j * np.pi * m / big_m)))


def _dropped_mass(envelope, first: int) -> float:
    """l1 mass envelope(t) + envelope(-t) summed over t >= first, outward
    until a shell no longer adds to it."""
    tail, t = 0.0, first
    while True:
        inc = envelope(t) + envelope(-t)
        tail += inc
        if inc < 1e-18 * max(tail, 1.0) or t > first + 100000:
            return tail
        t += 1


def gkp_state(
    d: int,
    mu: int,
    kappa: float,
    delta: float,
    s_max: int,
    tail_tol: float = 1e-8,
    normalize: bool = True,
):
    """Finite-energy grid code word as a sum of displaced squeezed states.

    Term s has coefficient exp(-kappa^2 alpha_d^2 (d s + mu)^2 / 2) and state
    D(alpha_d (d s + mu)) S(-log delta)|0> with alpha_d = sqrt(2 pi / d); the
    squeezer shrinks the q variance to delta^2.  Returns (superposition,
    dropped_l1_mass); raises if the truncation tail exceeds ``tail_tol``.
    """
    if d < 2 or not 0 <= mu < d or s_max < 0:
        raise ValueError("need d >= 2, 0 <= mu < d, s_max >= 0")
    alpha_d = math.sqrt(2 * math.pi / d)
    r = -math.log(delta)

    def envelope(s: int) -> float:
        return math.exp(-0.5 * kappa**2 * alpha_d**2 * (d * s + mu) ** 2)

    tail = _dropped_mass(envelope, s_max + 1)
    if tail > tail_tol:
        raise ValueError(f"s_max too small: dropped l1 mass {tail:.3e} > {tail_tol:.1e}")

    s = np.arange(-s_max, s_max + 1)
    terms = _displaced_stack(alpha_d * (d * s + mu) + 0.0j, [Squeeze(0, r)])
    coeffs = np.array([envelope(k) for k in s.tolist()]) + 0.0j
    if normalize:
        return _normalised(coeffs, terms), tail
    return Superposition.from_stack(coeffs, terms, GramCell(terms, orbit=True)), tail


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def grid_sensor(delta: float, t_max: int | None = None, tail_tol: float = 1e-8):
    """Sensor-type grid state: sum_t e^{-pi delta^2 t^2} D(t sqrt(pi/2)) S(delta)|0>.

    ``S(delta)`` squeezes the q variance to delta^2.  If ``t_max`` is omitted
    it is the least t_max >= 1 whose dropped l1 mass is at most ``tail_tol``.
    Returns (superposition, dropped_l1_mass).
    """
    _check_delta(delta)
    if not tail_tol >= 0:
        raise ValueError(f"tail_tol must be non-negative, got {tail_tol!r}")
    r = -math.log(delta)

    def envelope(t: int) -> float:
        return math.exp(-math.pi * delta**2 * t**2)

    if t_max is None:
        # one outward pass over the shells t >= 2, until one adds less than
        # 1e-18 and at most tail_tol; entry i of their suffix sums is the
        # mass dropped at t_max = i + 1
        shells = [envelope(2) + envelope(-2)]
        while shells[-1] >= 1e-18 or shells[-1] > tail_tol:
            t = len(shells) + 2
            shells.append(envelope(t) + envelope(-t))
        tails = np.cumsum(shells[::-1])[::-1]
        t_max = 1 + int(np.argmax(tails <= tail_tol))
        tail = float(tails[t_max - 1])
    elif isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral) or t_max < 0:
        raise ValueError(f"t_max must be a non-negative integer, got {t_max!r}")
    else:
        tail = _dropped_mass(envelope, t_max + 1)

    t = np.arange(-t_max, t_max + 1)
    terms = _displaced_stack(t * math.sqrt(math.pi / 2) + 0.0j, [Squeeze(0, r)])
    return _normalised(np.array([envelope(k) for k in t.tolist()]) + 0.0j, terms), tail


def _grid_theta(delta: float) -> float:
    """sum_{t in Z} e^{-pi delta^2 t^2}, from whichever side of the Poisson
    identity sum_t e^{-pi delta^2 t^2} = delta^-1 sum_k e^{-pi k^2 / delta^2}
    decays faster: there the k-th term is at most e^{-pi k^2}, so five
    terms a side reach double precision."""
    x = delta * delta if delta >= 1.0 else 1.0 / (delta * delta)
    total = 1.0 + 2.0 * sum(math.exp(-math.pi * x * k * k) for k in range(1, 6))
    return total if delta >= 1.0 else total / delta


def naive_grid_extent(delta: float, one_sided: bool = False) -> float:
    """(sum_t c_t)^2 / sum_t c_t^2 for the raw grid envelope c_t = e^{-pi delta^2 t^2}.

    This is the orthogonal-term approximation of the extent of the sensor
    state; asymptotically sqrt(2)/delta.  The published table for these
    states takes the same sum over t >= 0 only (``one_sided``), about half
    this value; both numbers are reported side by side.  Both sums are
    closed forms in the theta sum over all integers t (c_t^2 is the envelope
    at delta sqrt 2; the sum over t >= 0 is half the sum over Z plus c_0 / 2),
    so the cost does not grow as delta shrinks.
    """
    _check_delta(delta)
    first, second = _grid_theta(delta), _grid_theta(delta * math.sqrt(2.0))
    if one_sided:
        first, second = (first + 1.0) / 2.0, (second + 1.0) / 2.0
    return first * (first / second)


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class ExtentReport:
    extent_upper: float
    rank: int
    norm_squared: float
    l1: float

    def approx_rank_bound(self, delta: float) -> float:
        """Rank sufficient for a delta-approximation: 1 + extent / delta^2."""
        return 1.0 + self.extent_upper / delta**2


def measures(sup: Superposition) -> ExtentReport:
    """Gaussian-rank and extent upper bound of the given decomposition.

    ``extent_upper`` is l1^2 divided by the exact Gram norm, so it is exact
    for normalized inputs and exactly 1 for single-term inputs.
    """
    if sup.rank == 1:
        return ExtentReport(1.0, 1, abs(sup.coeffs[0]) ** 2, sup.l1)
    nsq = sup.norm_squared()
    return ExtentReport(sup.l1**2 / nsq, sup.rank, nsq, sup.l1)


@dataclass(frozen=True)
class Witness:
    """Rank-one witness |w><w| with w a scaled single-mode Fock vector."""

    fock_n: int
    scale: complex

    def term_amplitude(self, term: GaussianPure) -> complex:
        return np.conj(self.scale) * stellar.fock_amplitude(term.bargmann, self.fock_n)


def optimal_fock1_witness() -> Witness:
    """|1><1| / max_G |<1|G>|^2 as a vector witness |1>/|<1|G*>|."""
    return Witness(1, 1.0 / math.sqrt(FOCK1_FIDELITY))


@dataclass(frozen=True)
class WitnessReport:
    moduli: tuple
    all_equal: bool
    max_modulus: float
    tolerance: float


def witness_check(sup: Superposition, w: Witness, tol: float = 1e-9) -> WitnessReport:
    """Per-term |<w|phi_i>| with the equal-modulus optimality flag.

    Every optimal decomposition saturates |<w|phi_i>| = 1 against the optimal
    witness; equal moduli below 1 signal a feasible but sub-optimal
    decomposition.
    """
    moduli = tuple(abs(w.term_amplitude(e.term)) for e in sup.entries)
    spread = max(moduli) - min(moduli)
    return WitnessReport(moduli, bool(spread <= tol), max(moduli), tol)


# ---------------------------------------------------------------------------
# application bounds


def breeding_lower_bound(xi_grid: float) -> int:
    """Cat states needed to breed a grid state of extent xi: ceil(xi / 2)."""
    if xi_grid < 1:
        raise ValueError("extent is at least 1")
    return math.ceil(xi_grid / 2.0)


def boson_sampling_bound(mbar: int):
    """(extent of |1>)^Mbar cost bound and the non-classicality benchmark e^Mbar."""
    if mbar < 0:
        raise ValueError("photon count must be nonnegative")
    return FOCK1_EXTENT**mbar, math.exp(mbar)
