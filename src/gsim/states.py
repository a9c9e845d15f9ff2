"""Gaussian decompositions of non-Gaussian states and the associated measures.

A non-Gaussian pure state is stored as a weighted superposition of pure
Gaussian terms with exact relative phases, stored stacked: K coefficients,
one per distinct ket triple, and the triples as one stacked `StellarParams`;
``entries`` and ``terms()`` are views.  The decomposition's term count is the
(witnessed) Gaussian rank; the squared l1 norm of the coefficients after
exact Gram normalization upper-bounds the Gaussian extent.  Every library
state (cat, single-photon ring, rotation code, grid, GKP) is the orbit of one
Gaussian seed under displacements or phase rotations, built by `_orbit`.
A norm is the Gram form of a `GramCell`, which stores only the overlaps that
the form reads: K - 1 for an orbit, K(K-1)/2 for a general stack.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import stellar
from .exceptions import DimensionMismatch, IllConditioned, InvariantViolation
from .gates import Displace, PhaseShift, Squeeze
from .gaussian import GaussianPure

# squared l1 norm of the optimal single-photon decomposition: 4e/(3 sqrt(3))
FOCK1_EXTENT = 4 * math.e / (3 * math.sqrt(3))
# largest photon count whose two boson-sampling bounds are finite: e^mbar
# overflows first, as FOCK1_EXTENT < e
MAX_BS_MBAR = math.floor(math.log(np.finfo(float).max))
# largest |<1|G>|^2 over Gaussian G, attained by the optimal ring seed
FOCK1_FIDELITY = 3 * math.sqrt(3) / (4 * math.e)
# (probe, term) pairs per block of an amplitude sweep, and the most that one
# block of the fast norm's probes takes: its temporaries (four (K, L) float
# slots, 768 kB, and L rows of 1 + m + m^2 monomials and |xi|^2/2) stay
# bounded whatever the probe count.  Larger than glibc's default 128 kB mmap
# threshold, which glibc then raises to the freed size, so later blocks reuse
# the heap.  A block of this size spreads its fixed cost (about 40 us of numpy
# calls) over enough amplitudes that it costs about as much per amplitude as
# an unbounded one; 2^15 pairs ran no faster on the approx-default benchmark
# and peaked 0.3 MB higher.
# The monomials outgrow the slots only at a rank below (2 + m + m^2) / 2: one
# term on two modes takes 128 bytes a row, 3 MB at the full 24576 rows, which
# its fast norm reaches only below epsilon = 0.021 at p_fail = 0.05
AMPLITUDE_CHUNK = 3 << 13
# most envelope shells a grid or GKP truncation sums before giving up
MAX_SHELLS = 100000
# largest l1 mass that a grid or GKP truncation may drop
TAIL_TOL = 1e-8
# largest spread of the witness moduli that witness_check calls equal
WITNESS_TOL = 1e-9


class WeightedGaussian(NamedTuple):
    """One (coefficient, term) entry of a superposition."""

    coeff: complex
    term: GaussianPure


class GramCell:
    """The pairwise overlaps of a stack of ket triples, evaluated on first use.

    A Gaussian unitary on every term, a common coefficient scale and
    tensoring every term with one common state keep every overlap, so the
    superpositions derived that way share one cell (see `carried_to`).  Both
    kinds keep one store, ``pairs``, which `form` reads; no K x K matrix is
    built.  A general stack evaluates its K(K-1)/2 pairs i < j.  An
    ``orbit``, the stack of every library state (`_orbit`), evaluates only
    the K - 1 overlaps r_d = <G_0|G_d>: its Gram is Hermitian Toeplitz,
    G_ij = r_{j-i} and G_ji = conj(r_{j-i}), as for a cat pair, equally
    spaced real displacements (grid, GKP) and a cyclic orbit such as a
    rotation ring, whose circulant Gram is Toeplitz.
    """

    def __init__(self, triples: stellar.StellarParams, orbit: bool = False):
        self.triples, self.orbit = triples, orbit

    def carried_to(self, triples: stellar.StellarParams) -> "GramCell":
        """Cell of a stack with the same pairwise overlaps: this one once it
        has no ``pending_pairs``, else a fresh lazy cell of the same kind over
        ``triples``.  A derived state never evaluates an overlap into its
        parent's cell, so each derived state costs the same whichever of its
        siblings was evaluated first."""
        return self if self.pending_pairs == 0 else GramCell(triples, self.orbit)

    @property
    def pending_pairs(self) -> int:
        """Overlaps that the Gram form still has to evaluate: 0 once the cell
        holds its ``pairs``, else K - 1 for an orbit and K(K - 1)/2 for a
        general stack."""
        k = self.triples.log_c.shape[0]
        return 0 if "pairs" in vars(self) else k - 1 if self.orbit else k * (k - 1) // 2

    @cached_property
    def pairs(self) -> tuple:
        """(i, j, G_ij, W_ij) over the pairs i < j that `form` reads: (0, d)
        for an orbit, row-major for a general stack.  W_ij is the bound that
        `stellar.state_overlaps` returns with G_ij plus the K u |G_ij| that
        the K-term sums of a form add; G_ii = 1 has weight K u."""
        k = self.triples.log_c.shape[0]
        if self.orbit:
            i, j = np.zeros(k - 1, dtype=np.intp), np.arange(1, k)
        else:
            # np.triu_indices(k, 1) in O(P), without its k x k mask: row i starts at i k - i (i + 1)/2
            rows = np.arange(k)
            j = np.repeat(rows + 1 - rows * k + rows * (rows + 1) // 2, k - 1 - rows)
            i, j = np.repeat(rows, k - 1 - rows), j + np.arange(j.shape[0])
        values, weights = stellar.state_overlaps(self.triples, self.triples, i, j)
        weights += stellar.UNIT_ROUNDOFF * k * np.abs(values)
        return i, j, values, weights

    def form(self, c) -> tuple:
        """(c^+ G c, |c|^T W |c|): the Gram form of coefficients ``c`` and
        its rounding bound, from the cell's ``pairs``, in O(P) memory.

        An orbit's is ||c||^2 + 2 Re sum_{d>0} r_d s_d with the lag sums
        s_d = sum_i conj(c_i) c_{i+d}, by direct correlation (no FFT).  A
        general stack's is ||c||^2 + 2 sum_i sum_{j>i} Re(conj(c_i) G_ij c_j):
        per-row sums (`np.bincount` over i), then one sum over the rows.
        |c|^T W |c| is formed the same way from |c|.  Each product
        conj(c_i) G_ij c_j passes through two sums of at most K terms, so the
        same W bounds both kinds."""
        k, moduli, (i, j, g, w) = c.shape[0], np.abs(c), self.pairs
        u_k = stellar.UNIT_ROUNDOFF * k
        if self.orbit:
            s, t = (np.correlate(x, x, "full")[k - 1 :] for x in (c, moduli))
            return float(s[0].real + 2.0 * np.real(g @ s[1:])), float(u_k * t[0] + 2.0 * (w @ t[1:]))
        terms = np.conj(c)[i] * g
        terms *= c[j]
        value = float(np.real(np.conj(c) @ c) + 2.0 * np.bincount(i, terms.real, k).sum())
        terms = moduli[i] * w
        terms *= moduli[j]
        return value, float(u_k * (moduli @ moduli) + 2.0 * np.bincount(i, terms, k).sum())


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
        """Superposition over a stack of triples that passed `stellar.check_normalised`.

        ``gram_cell`` shares the Gram of a stack with the same pairwise
        overlaps; without one the Gram is a fresh general one.
        """
        sup = cls.__new__(cls)
        sup._store(np.asarray(coeffs, dtype=complex), triples, gram_cell=gram_cell)
        return sup

    def _store(self, coeffs, triples, l1=None, gram_cell=None):
        moduli = np.abs(coeffs)
        if np.count_nonzero(~np.isfinite(moduli)):
            raise ValueError("coefficient must be finite")
        if coeffs.flags.writeable:
            coeffs = coeffs.copy()
            coeffs.flags.writeable = False  # so `gram_form` cannot go stale
        self.coeffs, self.triples = coeffs, triples
        self.gram_cell = gram_cell if gram_cell is not None else GramCell(triples)
        self.n = triples.modes
        self.l1 = float(moduli.sum())
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
        """All K^2 overlaps (`stellar.overlap_matrix`), diagonal pinned to 1:
        a dense reference for `GramCell.form`, which no norm reads."""
        gram = stellar.overlap_matrix(self.triples, self.triples)
        np.fill_diagonal(gram, 1.0)
        return gram

    @cached_property
    def gram_form(self) -> tuple:
        """`GramCell.form` of the coefficients, (c^+ G c, its rounding bound):
        O(rank^2) once per superposition; every later norm reads it back."""
        return self.gram_cell.form(self.coeffs)

    def norm_squared(self) -> float:
        """c^+ G c if it lies above its rounding bound ``gram_form[1]``: within
        it no digit is correct, nor in a form or bound that is not finite
        (IllConditioned); below minus it the phases are corrupted."""
        value, bound = self.gram_form
        if value < -bound:
            raise InvariantViolation(f"Gram form {value:.3g} below minus its rounding bound {bound:.3g}; phases corrupted")
        if not bound < value < math.inf:
            raise IllConditioned(f"Gram norm {value:.3g} within its rounding bound {bound:.3g} (l1^2 = {self.l1**2:.3g})")
        return value

    @property
    def norm_band(self) -> tuple:
        """(c^+ G c - bound, c^+ G c + bound): the band of the exact norm that
        every exact task reads; raises where `norm_squared` does."""
        value, bound = self.norm_squared(), self.gram_form[1]
        return value - bound, value + bound

    @cached_property
    def amplitude_table(self) -> stellar.AmplitudeTable:
        """The `stellar.AmplitudeTable` of ``triples``, built on first use; a
        derived superposition (evolved, conditioned, sparsified) builds its own."""
        return stellar.AmplitudeTable(self.triples)

    def coherent_amplitude(self, xi) -> complex:
        """<xi|psi>, row 0 of the ``amplitude_table``'s block of one outcome; O(rank)."""
        return complex(self.coeffs @ self.amplitude_table.amplitudes(np.atleast_1d(xi)[None])[0][0])

    def coherent_amplitude_batch(self, xis) -> np.ndarray:
        """<xi|psi> for a stack of outcomes (L, n); costs L * rank evaluations."""
        xis = np.asarray(xis, dtype=complex)
        table, rows = self.amplitude_table, max(1, AMPLITUDE_CHUNK // self.rank)
        total = np.empty(xis.shape[0], dtype=complex)
        for s in range(0, max(xis.shape[0], 1), rows):
            total[s : s + rows] = table.amplitudes(xis[s : s + rows])[0] @ self.coeffs
        return total

    def mean_photon_husimi(self) -> float:
        """Anti-normally-ordered moment <n> + n_modes of the normalized state.

        The Husimi second moment, a measure of the state that no estimator
        uses: the Gram norm and a higher-order central difference of the
        global-phase generating function g(t) = <psi|e^{i t n_total}|psi>,
        four rank x rank overlap kernels.
        """
        t, coeffs = self.triples, self.coeffs

        def g(time: float) -> complex:
            # e^{i t n_total} maps the ket triple (A, b, c) to (e^{2it} A, e^{it} b, c)
            ph = np.exp(1j * time)
            turned = stellar.StellarParams(ph * ph * t.a, ph * t.b, t.log_c)
            return complex(np.conj(coeffs) @ stellar.overlap_matrix(t, turned) @ coeffs)

        h = 1e-3
        # five-point first derivative, O(h^4)
        d1 = (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)
        return max(float(np.imag(d1) / self.norm_squared()), 0.0) + self.n


_VACUUM = stellar.vacuum(1)


def _orbit(seed: stellar.StellarParams, gate, coeffs, normalise: bool = True) -> Superposition:
    """Orbit of the one-mode ket ``seed`` under ``gate``, a `Displace` or a
    `PhaseShift` with one parameter per coefficient: term i is gate_i|seed>
    with coefficient ``coeffs[i]``.  With ``normalise`` the coefficients are
    scaled to unit norm by the exact Gram, which the scaled state keeps."""
    coeffs = np.asarray(coeffs, dtype=complex)
    terms = stellar.apply_gate(gate, seed[None][np.zeros(coeffs.shape[0], dtype=np.intp)], 1)
    stellar.check_normalised(terms)
    sup = Superposition.from_stack(coeffs, terms, GramCell(terms, orbit=True))
    if normalise:
        sup = Superposition.from_stack(coeffs * (1.0 / np.sqrt(sup.norm_squared())), terms, sup.gram_cell)
    return sup


# ---------------------------------------------------------------------------
# decomposition library


def coherent_ring_seed() -> stellar.StellarParams:
    """Ket triple (0, 1, -1/2) of |alpha=1>, maximizing |<1|alpha>| among coherent states."""
    return stellar.StellarParams(np.zeros((1, 1)), [1.0], -0.5)


def optimal_fock1_seed() -> stellar.StellarParams:
    """Ket triple of the displaced squeezed seed attaining the maximal |<1|G>|^2 = 3*sqrt(3)/(4e).

    The optimum sits at squeezing artanh(1/2) = ln(sqrt 3) along q and squared
    displacement 2/3 (real amplitude sqrt(2/3)); verified independently by the
    derivative-free optimizer and the Fock oracle.
    """
    squeezed = stellar.apply_gate(Squeeze(0, math.log(math.sqrt(3.0))), _VACUUM, 1)
    return stellar.apply_gate(Displace(0, math.sqrt(2.0 / 3.0)), squeezed, 1)


def fock1_ring(seed: stellar.StellarParams, big_n: int = 16) -> Superposition:
    """Phase-shifted ring approximating the single-photon state, from a one-mode ket triple.

    Terms m = 0..2N-1 carry rotations by pi m / N and coefficients
    e^{-i pi m / N} / (2N <1|seed>), so photon numbers 1 mod 2N survive the
    sum and fidelity to the single photon approaches 1 as N grows
    (contamination starts at Fock level 2N + 1).  The coefficient phase sign
    is fixed by requiring sum_m e^{i m pi (n - 1) / N} to keep n = 1, which a
    norm check against the oracle confirms.
    """
    if big_n < 2:
        raise ValueError("ring size must be at least 2")
    if seed.modes != 1:
        raise DimensionMismatch("ring seeds are single-mode")
    amp1 = stellar.fock_amplitude(seed, 1)
    if abs(amp1) < 1e-12:
        raise ValueError("seed has vanishing single-photon amplitude")
    theta = np.pi * np.arange(2 * big_n) / big_n
    return _orbit(seed, PhaseShift(0, theta), np.exp(-1j * theta) / (2 * big_n * amp1), normalise=False)


def cat_state(alpha: complex, parity: int = +1) -> Superposition:
    """Even (+1) or odd (-1) cat state: (|a> +/- |-a>) / sqrt(N), the
    displacement orbit of the vacuum at (a, -a) with closed-form N."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    alpha = complex(alpha)
    if alpha == 0:
        if parity == -1:
            raise ValueError("odd cat state vanishes at alpha = 0")
        return Superposition.from_stack(np.ones(1), stellar.vacuum(1, 1))
    x = -2.0 * abs(alpha) ** 2  # the odd norm 2 (1 - e^x) through expm1 keeps its digits at small |a|
    coeff = 1.0 / np.sqrt(2.0 * (1.0 + np.exp(x)) if parity == 1 else -2.0 * np.expm1(x))
    return _orbit(_VACUUM, Displace(0, np.array([alpha, -alpha])), [coeff, parity * coeff], normalise=False)


def rotational_code(big_m: int, mu: int, alpha: complex) -> Superposition:
    """Codeword of the 2M-fold rotation code: the coherent orbit
    e^{i pi m n / M}|alpha> with signs (-1)^{mu m}, scaled by the exact Gram."""
    if big_m < 1 or mu not in (0, 1):
        raise ValueError("need M >= 1 and mu in {0, 1}")
    m = np.arange(2 * big_m)
    return _orbit(_VACUUM, Displace(0, alpha * np.exp(1j * np.pi * m / big_m)), (-1.0) ** (mu * m) + 0.0j)


def _tails(envelope, least: int) -> np.ndarray:
    """Entry t: the l1 mass dropped by a truncation at |s| <= t, the shells
    envelope(s) + envelope(-s) summed over s > t.  Shells are taken outward
    from s = 1, past s = least + 1, until one adds under 1e-18 and at most
    TAIL_TOL, then summed inward; ValueError past MAX_SHELLS shells."""
    shells = []
    while len(shells) <= least or shells[-1] >= 1e-18 or shells[-1] > TAIL_TOL:
        if len(shells) == MAX_SHELLS:
            raise ValueError(f"truncation needs more than {MAX_SHELLS} shells of the envelope")
        s = len(shells) + 1
        shells.append(envelope(s) + envelope(-s))
    return np.cumsum(shells[::-1])[::-1]


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def _comb(delta: float, envelope, position, cut: int | None = None):
    """The normalised sum over |s| <= cut of envelope(s) D(position(s))
    S(-log delta)|0>, q variance delta^2, and the l1 mass that the cut drops.
    An omitted cut is the least cut >= 1 that drops at most TAIL_TOL; a given
    one that drops more raises, for which the remedy is a larger cut."""
    _check_delta(delta)
    tails = _tails(envelope, 1 if cut is None else cut)
    if cut is None:
        cut = 1 + int(np.argmax(tails[1:] <= TAIL_TOL))
    elif tails[cut] > TAIL_TOL:
        raise ValueError(f"s_max too small: dropped l1 mass {tails[cut]:.3e} > {TAIL_TOL:.1e}")
    s = np.arange(-cut, cut + 1)
    seed = stellar.apply_gate(Squeeze(0, -math.log(delta)), _VACUUM, 1)
    return _orbit(seed, Displace(0, position(s) + 0.0j), np.array([envelope(k) for k in s.tolist()])), float(tails[cut])


def gkp_state(d: int, mu: int, kappa: float, delta: float, s_max: int | None = None):
    """Finite-energy grid code word: term |s| <= s_max has coefficient
    exp(-kappa^2 alpha_d^2 (d s + mu)^2 / 2) and state D(alpha_d (d s + mu))
    S(-log delta)|0>, alpha_d = sqrt(2 pi / d), truncated as `_comb` does.
    Returns (superposition, dropped_l1_mass).
    """
    if d < 2 or not 0 <= mu < d or (s_max is not None and s_max < 0):
        raise ValueError("need d >= 2, 0 <= mu < d, s_max >= 0")
    alpha_d = math.sqrt(2 * math.pi / d)

    def envelope(s: int) -> float:
        return math.exp(-0.5 * kappa**2 * alpha_d**2 * (d * s + mu) ** 2)

    return _comb(delta, envelope, lambda s: alpha_d * (d * s + mu), s_max)


def grid_sensor(delta: float):
    """Sensor-type grid state: sum_t e^{-pi delta^2 t^2} D(t sqrt(pi/2)) S(delta)|0>,
    S(delta) squeezing the q variance to delta^2, at the least cut that `_comb`
    takes.  Returns (superposition, dropped_l1_mass)."""
    return _comb(delta, lambda t: math.exp(-math.pi * delta**2 * t**2), lambda t: t * math.sqrt(math.pi / 2))


def _grid_theta(delta: float) -> float:
    """sum_{t in Z} e^{-pi delta^2 t^2}, from whichever side of the Poisson
    identity sum_t e^{-pi delta^2 t^2} = delta^-1 sum_k e^{-pi k^2 / delta^2}
    decays faster: there the k-th term is at most e^{-pi k^2}, so five
    terms a side reach double precision."""
    x = delta * delta if delta >= 1.0 else (1.0 / delta) * (1.0 / delta)  # no underflow of delta^2
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
    band: tuple


def measures(sup: Superposition) -> ExtentReport:
    """Gaussian-rank and extent upper bound of the given decomposition.

    ``extent_upper`` is l1^2 divided by the exact Gram norm, so it is exact
    for normalized inputs and exactly 1 for single-term inputs; ``band`` is
    l1^2 over the `Superposition.norm_band`, and (1, 1) for a single term.
    """
    if sup.rank == 1:
        return ExtentReport(1.0, 1, abs(sup.coeffs[0]) ** 2, sup.l1, (1.0, 1.0))
    nsq, (lo, hi) = sup.norm_squared(), sup.norm_band
    return ExtentReport(sup.l1**2 / nsq, sup.rank, nsq, sup.l1, (sup.l1**2 / hi, sup.l1**2 / lo))


@dataclass(frozen=True)
class Witness:
    """Rank-one witness |w><w| with w a scaled single-mode Fock vector."""

    fock_n: int
    scale: complex


def optimal_fock1_witness() -> Witness:
    """|1><1| / max_G |<1|G>|^2 as a vector witness |1>/|<1|G*>|."""
    return Witness(1, 1.0 / math.sqrt(FOCK1_FIDELITY))


@dataclass(frozen=True)
class WitnessReport:
    moduli: tuple
    all_equal: bool
    max_modulus: float


def witness_check(sup: Superposition, w: Witness) -> WitnessReport:
    """Per-term |<w|phi_i>| with the equal-modulus optimality flag.

    Every optimal decomposition saturates |<w|phi_i>| = 1 against the optimal
    witness; equal moduli below 1 signal a feasible but sub-optimal
    decomposition.
    """
    moduli = tuple(np.abs(np.conj(w.scale) * stellar.fock_amplitude(sup.triples, w.fock_n)).tolist())
    spread = max(moduli) - min(moduli)
    return WitnessReport(moduli, bool(spread <= WITNESS_TOL), max(moduli))


# ---------------------------------------------------------------------------
# application bounds


def breeding_lower_bound(xi_grid: float) -> int:
    """Cat states needed to breed a grid state of extent xi: ceil(xi / 2)."""
    if xi_grid < 1:
        raise ValueError("extent is at least 1")
    return math.ceil(xi_grid / 2.0)


def boson_sampling_bound(mbar: int):
    """(extent of |1>)^Mbar cost bound and the non-classicality benchmark e^Mbar;
    OverflowError past MAX_BS_MBAR."""
    if mbar < 0:
        raise ValueError("photon count must be nonnegative")
    if mbar > MAX_BS_MBAR:
        raise OverflowError(f"photon count mbar = {mbar} overflows e^mbar; both bounds are finite up to mbar = {MAX_BS_MBAR}")
    return FOCK1_EXTENT**mbar, math.exp(mbar)
