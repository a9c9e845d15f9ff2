import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsim import cli, counters, fock, states, stellar
from gsim.exceptions import IllConditioned, InvariantViolation
from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze
from gsim.gaussian import GaussianPure, tensor
from gsim.phase import propagate
from gsim.simulator import condition, evolve, exact_born, fast_norm, heterodyne_density
from gsim.states import (
    FOCK1_EXTENT,
    FOCK1_FIDELITY,
    Superposition,
    WeightedGaussian,
    boson_sampling_bound,
    breeding_lower_bound,
    cat_state,
    coherent_ring_seed,
    fock1_ring,
    gkp_state,
    grid_sensor,
    measures,
    naive_grid_extent,
    optimal_fock1_seed,
    optimal_fock1_witness,
    rotational_code,
    witness_check,
)
from gsim.stellar import GaussianUnitary

from conftest import cross_overlap, random_circuit, single_gaussian


def ring_oracle_vector(seed_gates, big_n, coeffs, cutoff=70):
    """Fock vector of a phase-shifted ring built term by term."""
    total = np.zeros(cutoff, dtype=complex)
    for m in range(2 * big_n):
        gates = list(seed_gates) + [PhaseShift(0, np.pi * m / big_n)]
        fv = fock.oracle_state(gates, 1, cutoff=cutoff)
        total += coeffs[m] * fv.amplitudes
    return total


class TestFock1Ring:
    def test_coherent_seed_l1(self):
        ring = fock1_ring(coherent_ring_seed(), 16)
        assert abs(ring.l1 - math.sqrt(math.e)) < 1e-12
        assert abs(ring.l1**2 - math.e) < 1e-9

    def test_squeezed_seed_extent(self):
        ring = fock1_ring(optimal_fock1_seed(), 16)
        rep = measures(ring)
        assert abs(rep.extent_upper - FOCK1_EXTENT) < 1e-6
        assert abs(FOCK1_EXTENT - 2.09253) < 1e-5

    def test_oracle_fidelity_to_single_photon(self):
        big_n = 16
        seed_gates = [Squeeze(0, math.log(math.sqrt(3))), Displace(0, math.sqrt(2 / 3))]
        amp1 = stellar.fock_amplitude(optimal_fock1_seed(), 1)
        coeffs = [np.exp(-1j * np.pi * m / big_n) / (2 * big_n * amp1) for m in range(2 * big_n)]
        vec = ring_oracle_vector(seed_gates, big_n, coeffs)
        fid = abs(vec[1]) ** 2 / np.vdot(vec, vec).real
        assert fid >= 1.0 - 1e-6

    def test_vanishing_seed_amplitude_rejected(self):
        with pytest.raises(ValueError):
            fock1_ring(stellar.vacuum(1), 8)

    def test_small_ring_rejected(self):
        with pytest.raises(ValueError):
            fock1_ring(coherent_ring_seed(), 1)


class TestCatState:
    def test_even_cat_l1(self):
        sup = cat_state(1.0, +1)
        expected = 2.0 / (1.0 + np.exp(-2.0))
        assert abs(sup.l1**2 - expected) < 1e-12
        assert sup.rank == 2

    def test_large_alpha_limit(self):
        sup = cat_state(4.0, +1)
        assert abs(sup.l1**2 - 2.0) < 1e-10

    def test_alpha_zero_collapses_to_vacuum(self):
        sup = cat_state(0.0, +1)
        assert sup.rank == 1
        assert measures(sup).extent_upper == 1.0
        with pytest.raises(ValueError):
            cat_state(0.0, -1)

    def test_norm_is_one(self):
        for parity in (+1, -1):
            sup = cat_state(0.8, parity)
            assert sup.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_odd_cat_normalises_at_tiny_alpha(self):
        # 1 - e^{-2|a|^2} rounds to 0 below |a| ~ 1e-8; expm1 keeps it, so the
        # coefficients are 1 / (2|a|) to rounding
        sup = cat_state(1e-9, -1)
        assert sup.coeffs[0] == pytest.approx(5e8, rel=1e-15) and sup.coeffs[1] == -sup.coeffs[0]


class TestNormSquared:
    """One rule judges the exact norm c^+ G c, by its rounding bound."""

    def test_value_outside_its_bound_is_returned(self):
        sup = cat_state(0.8, -1)
        value, bound = sup.gram_form
        assert 0 < bound < value == sup.norm_squared()

    def test_value_within_its_bound_is_ill_conditioned(self):
        # |a| = 1e-8: the odd cat's l1^2 is 1e16, and its Gram form has no
        # correct digit left
        sup = cat_state(1e-8, -1)
        value, bound = sup.gram_form
        assert bound >= value
        with pytest.raises(IllConditioned, match="rounding bound"):
            sup.norm_squared()

    @pytest.mark.parametrize("value, bound", [(-1e-3, 1e-4), (-2e-16, 1e-16)])
    def test_value_below_minus_its_bound_is_an_invariant_violation(self, value, bound):
        sup = cat_state(0.8, +1)
        sup.gram_form = (value, bound)
        with pytest.raises(InvariantViolation, match="phases corrupted"):
            sup.norm_squared()
        sup.gram_form = (-bound, bound)
        with pytest.raises(IllConditioned):
            sup.norm_squared()


# one-mode states whose norms the band tests read: odd cats at alpha 1e-6
# (band [0.99867, 1.00133]) and 1e-8 (IllConditioned) at the ends
BAND_STATES = {
    "cat-odd-1e-6": lambda: cat_state(1e-6, -1),
    "cat-odd-1e-8": lambda: cat_state(1e-8, -1),
    "cat-even": lambda: cat_state(0.8 - 0.5j, +1),
    "ring8": lambda: fock1_ring(optimal_fock1_seed(), 4),
    "grid0.3": lambda: grid_sensor(0.3)[0],
    "coherent": lambda: single_gaussian(GaussianPure.coherent([0.4 - 0.3j])),
}


class TestNormBand:
    """`Superposition.norm_band` is the one band of the exact norm: every exact
    task reads it, and it raises where `Superposition.norm_squared` does."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(BAND_STATES)),
        modes=st.integers(1, 3),
        general=st.booleans(),
        gates=st.integers(0, 2**32 - 1),
    )
    def test_every_exact_task_reads_the_one_band(self, name, modes, general, gates):
        sup = BAND_STATES[name]()
        if name == "cat-odd-1e-6":  # before the gates, which change its overlaps' rounding weights
            assert sup.norm_band == pytest.approx((0.99867, 1.00133), abs=1e-5)
        if modes > 1:  # vacuum on the other modes keeps the overlaps
            sup = sup.carried_to(stellar.tensor(sup.triples, stellar.vacuum(modes - 1)))
        sup = evolve(sup, GaussianUnitary.from_gates(random_circuit(modes, 4, np.random.default_rng(gates)), modes))
        if general:
            sup = Superposition.from_stack(sup.coeffs, sup.triples)
        assert sup.orbit == (not general and name != "coherent")
        try:
            nsq = sup.norm_squared()
        except IllConditioned:
            for read in (lambda: sup.norm_band, lambda: fast_norm(sup, 0.1, 0.05), lambda: measures(sup)):
                with pytest.raises(IllConditioned):
                    read()
            assert name == "cat-odd-1e-8"
            return
        # each band below against the formula its task used on ``gram_form``
        (value, bound), (lo, hi) = sup.gram_form, sup.norm_band
        assert (lo, hi) == (value - bound, value + bound) and lo <= nsq <= hi
        est = fast_norm(sup, 0.1, 0.05)  # the Gram is held: its route costs nothing
        assert (est.eta, est.samples, est.band) == (nsq, 0, (lo, hi))
        l1sq = sup.l1**2
        assert measures(sup).band == ((1.0, 1.0) if sup.rank == 1 else (l1sq / (value + bound), l1sq / (value - bound)))
        xi = np.full(modes, 0.3 - 0.2j)
        (amps,), (bounds,) = sup.amplitude_table.amplitudes(xi[None])
        amp = abs(complex(sup.coeffs @ amps))
        amp_err = float(np.abs(sup.coeffs) @ (bounds + stellar.UNIT_ROUNDOFF * sup.rank * np.abs(amps)))
        scale = np.pi**modes
        parent = (max(amp - amp_err, 0.0) ** 2 / (scale * (value + bound)), (amp + amp_err) ** 2 / (scale * (value - bound)))
        assert exact_born(sup, xi).error_band == parent
        if modes > 1:
            state, log_scale = condition(sup, [modes - 1], xi[:1])
            (num, num_err), scale = state.gram_form, np.exp(log_scale) / np.pi
            parent = ((num - num_err) * scale / (value + bound), (num + num_err) * scale / (value - bound))
            assert heterodyne_density(sup, [modes - 1], xi[:1]).error_band == parent

    def test_a_band_within_its_bound_raises_as_the_norm_does(self):
        for value, bound, error in ((-1e-3, 1e-4, InvariantViolation), (1e-17, 1e-16, IllConditioned)):
            sup = cat_state(0.8, +1)
            sup.gram_form = (value, bound)
            for read in (sup.norm_squared, lambda: sup.norm_band):
                with pytest.raises(error):
                    read()

    @pytest.mark.parametrize("value, bound", [(np.nan, 1e-16), (1.0, np.nan), (np.nan, np.nan), (np.inf, 1e-16), (1.0, np.inf)])
    def test_a_form_or_bound_that_is_not_finite_is_ill_conditioned(self, value, bound):
        sup = cat_state(0.8, +1)
        sup.gram_form = (value, bound)
        for read in (sup.norm_squared, lambda: sup.norm_band, lambda: measures(sup), lambda: exact_born(sup, [0.1])):
            with pytest.raises(IllConditioned):
                read()


FAR = math.log(1.3e154)  # the reader's outcome limit, about sqrt of the largest double


def _displaced(name, alpha):
    """One-mode state far out: the even cat at the real amplitude |alpha|
    (an orbit, as the CLI's --alpha builds it), or ring 8, grid 0.3 or a
    squeezed vacuum with every term displaced by ``alpha``, on a general
    cell.  The displaced terms' Re log c is set to `stellar.log_magnitude`,
    as the fold's log c, of order |alpha|^2, keeps no digit of the
    normalisation."""
    if name == "cat":
        return cat_state(abs(alpha))
    base = {
        "ring8": lambda: fock1_ring(optimal_fock1_seed(), 4),
        "grid0.3": lambda: grid_sensor(0.3)[0],
        "squeezed": lambda: Superposition.from_stack(np.ones(1), stellar.apply_gate(Squeeze(0, 0.5, 0.3), stellar.vacuum(1, 1), 1)),
    }[name]()
    t = stellar.apply_gate(Displace(0, alpha), base.triples, 1)
    t.log_c = stellar.log_magnitude(t.a, t.b) + 1j * t.log_c.imag
    return Superposition.from_stack(base.coeffs, t)


class TestFarDisplacements:
    """Far from the origin every exact result is finite and inside its band,
    or IllConditioned: an overflowed intermediate never escapes as a
    warning, an OverflowError, a ZeroDivisionError or a NaN."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["cat", "ring8", "grid0.3", "squeezed"]),
        log_alpha=st.floats(0.0, FAR),
        log_xi=st.floats(0.0, FAR),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        at_centre=st.booleans(),
    )
    def test_exact_results_are_banded_or_ill_conditioned(self, name, log_alpha, log_xi, phases, at_centre):
        alpha = math.exp(log_alpha) * complex(math.cos(phases[0]), math.sin(phases[0]))
        centre = abs(alpha) if name == "cat" else alpha
        xi = centre if at_centre else math.exp(log_xi) * complex(math.cos(phases[1]), math.sin(phases[1]))
        try:
            with np.errstate(over="raise", invalid="raise"):  # building the far state is not under test
                sup = _displaced(name, alpha)
        except FloatingPointError:
            assume(False)

        def born():
            est = exact_born(sup, [xi])
            return est.value, est.error_band

        def extent():
            rep = measures(sup)
            return rep.extent_upper, rep.band

        for read in (born, lambda: (sup.norm_squared(), sup.norm_band), extent):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value, (lo, hi) = read()
                except IllConditioned:
                    continue
            assert all(map(math.isfinite, (value, lo, hi))) and lo <= value <= hi, (value, lo, hi)


class TestOrbitForm:
    """An orbit's Gram form reads its row: K - 1 overlaps and O(K) memory."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fock1_ring(optimal_fock1_seed(), 4),
            lambda: fock1_ring(optimal_fock1_seed(), 32),
            lambda: fock1_ring(optimal_fock1_seed(), 256),
            lambda: grid_sensor(0.1)[0],
            lambda: cat_state(1.3 - 0.4j, -1),
        ],
        ids=["ring8", "ring64", "ring512", "grid0.1", "cat"],
    )
    def test_form_equals_the_dense_form(self, make):
        sup = make()
        t = GaussianUnitary.from_gates([Squeeze(0, 0.3, 0.4), Displace(0, 0.5 - 0.2j)], 1).apply(sup.triples)
        out = Superposition.from_stack(sup.coeffs, t, orbit=True)  # a fresh form, also for grid
        counters.tally.reset()
        value, bound = out.gram_form
        assert out.orbit and counters.tally.overlap_evals == out.rank - 1
        # the dense Hermitian Toeplitz G and W that the row (0, d) stands for
        r, w = stellar.state_overlaps(t, t, np.zeros(out.rank - 1, dtype=np.intp), np.arange(1, out.rank))
        w += stellar.UNIT_ROUNDOFF * out.rank * np.abs(r)
        lag = np.subtract.outer(np.arange(out.rank), np.arange(out.rank))  # i - j
        row = np.concatenate(([1.0], r))[np.abs(lag)]
        gram = np.where(lag <= 0, row, np.conj(row))
        weights = np.concatenate(([stellar.UNIT_ROUNDOFF * out.rank], w))[np.abs(lag)]
        c, a = out.coeffs, np.abs(out.coeffs)
        dense, dense_bound = float(np.real(np.conj(c) @ gram @ c)), float(a @ weights @ a)
        assert abs(value - dense) <= 1e-13 * dense
        assert abs(bound - dense_bound) <= 1e-12 * dense_bound
        reference = float(np.real(np.conj(c) @ out.gram @ c))  # all K^2 pairs of the kernel
        assert abs(value - reference) <= 1e-13 * reference

    def test_first_exact_born_on_a_rank_2048_ring_builds_no_matrix(self):
        import tracemalloc

        out = evolve(fock1_ring(optimal_fock1_seed(), 1024), GaussianUnitary.from_gates([Squeeze(0, 0.2, 0.1)], 1))
        counters.tally.reset()
        tracemalloc.start()
        try:
            born = exact_born(out, [0.3 - 0.1j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6 and counters.tally.overlap_evals == 2047 and out.pending_pairs == 0
        lo, hi = born.error_band
        assert lo <= born.value <= hi

    @pytest.mark.parametrize(
        "make",
        [lambda: grid_sensor(0.1)[0], lambda: gkp_state(2, 0, 0.3, 0.3, 5)[0], lambda: rotational_code(3, 1, 2.0)],
        ids=["grid", "gkp", "rotational"],
    )
    def test_a_normalised_orbit_evaluates_its_row_once(self, make):
        # the builder's one row forms both the raw and the scaled form; the
        # state's norm and a first exact_born read it back
        counters.tally.reset()
        sup = make()
        assert counters.tally.overlap_evals == sup.rank - 1 and sup.pending_pairs == 0
        sup.norm_squared()
        exact_born(sup, [0.2 - 0.1j])
        assert counters.tally.overlap_evals == sup.rank - 1
        assert sup.gram_form == Superposition.from_stack(sup.coeffs, sup.triples, orbit=True).gram_form

    def test_a_computed_row_is_shared(self):
        ring = fock1_ring(optimal_fock1_seed(), 8)
        ring.norm_squared()
        counters.tally.reset()
        out = evolve(ring, GaussianUnitary.from_gates([Squeeze(0, 0.3, 0.4)], 1))
        assert out.pending_pairs == 0 and out.gram_form is ring.gram_form
        out.norm_squared()
        assert counters.tally.overlap_evals == 0


class TestRotationalCode:
    def test_m1_is_cat(self):
        code = rotational_code(1, 0, 1.0)
        cat = cat_state(1.0, +1)
        assert code.rank == 2
        assert abs(code.norm_squared() - 1.0) < 1e-10
        # same physical state: cross overlap has modulus 1
        assert abs(abs(cross_overlap(code, cat)) - 1.0) < 1e-10

    def test_m2_rank_and_norm(self):
        code = rotational_code(2, 0, 2.0)
        assert code.rank == 4
        assert abs(code.norm_squared() - 1.0) < 1e-10

    def test_mu_sectors_orthogonal(self):
        c0 = rotational_code(2, 0, 2.0)
        c1 = rotational_code(2, 1, 2.0)
        assert abs(cross_overlap(c0, c1)) < 1e-6


def _grid_comb(delta):
    """The envelope and the positions that grid_sensor hands the comb builder."""
    return (lambda t: math.exp(-math.pi * delta**2 * t**2)), (lambda t: t * math.sqrt(math.pi / 2))


class TestGridStates:
    def test_gkp_single_term_limit(self):
        # the one-term truncation is the plain squeezed vacuum; at kappa = 3 it
        # drops 5.5e-25 of l1 mass, at kappa = 0.3 far more than TAIL_TOL
        sup, tail = gkp_state(2, 0, 3.0, 0.3, 0)
        assert sup.rank == 1 and tail < 1e-24
        assert measures(sup).extent_upper == 1.0
        with pytest.raises(ValueError):
            gkp_state(2, 0, 0.3, 0.3, 0)

    def test_gkp_term_count_and_symmetry(self):
        sup, _ = gkp_state(2, 0, 0.3, 0.3, 5)
        assert sup.rank == 11
        assert gkp_state(2, 0, 0.3, 0.3)[0].rank == 11  # s_max 5 is the least cut here
        c = np.abs(sup.coefficients())
        assert np.allclose(c, c[::-1], atol=1e-12)

    def test_gkp_envelope_ratio(self):
        sup, _ = gkp_state(2, 0, 0.3, 0.3, 5)
        alpha_d = math.sqrt(math.pi)
        expected = math.exp(-0.5 * 0.09 * alpha_d**2 * 4)
        ratio = abs(sup.entries[6].coeff / sup.entries[5].coeff)
        assert abs(ratio - expected) < 1e-12

    def test_gkp_tail_guard(self):
        with pytest.raises(ValueError):
            gkp_state(2, 0, 0.1, 0.3, 1)

    def test_gkp_tail_bounds_extent_change(self, monkeypatch):
        # a lossy grid cut, built by the comb builder with its tolerance lifted,
        # returns its dropped mass, which controls the extent shift
        # (small-perturbation bound)
        monkeypatch.setattr(states, "TAIL_TOL", math.inf)
        for delta in (0.35, 0.5, 0.6):
            envelope, position = _grid_comb(delta)
            base, tail = states._comb(delta, envelope, position, 2)
            bigger, _ = states._comb(delta, envelope, position, 3)
            e0 = measures(base).extent_upper
            e1 = measures(bigger).extent_upper
            assert abs(e1 - e0) <= 5.0 * e0 * tail, delta

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.02, 3.0), st.data())
    def test_a_grid_takes_the_least_cut_that_meets_the_tail_tolerance(self, delta, data):
        sup, tail = grid_sensor(delta)
        cut = (sup.rank - 1) // 2
        assert cut >= 1 and tail <= states.TAIL_TOL
        if cut > 1:  # one cut less, or any below it, drops more
            envelope, position = _grid_comb(delta)
            for below in {cut - 1, data.draw(st.integers(0, cut - 1))}:
                with pytest.raises(ValueError, match="s_max too small"):
                    states._comb(delta, envelope, position, below)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.floats(0.1, 3.0), st.floats(0.2, 1.0), st.data())
    def test_a_gkp_word_takes_the_least_cut_that_meets_the_tail_tolerance(self, d, kappa, delta, data):
        mu = data.draw(st.integers(0, d - 1))
        sup, tail = gkp_state(d, mu, kappa, delta)
        cut = (sup.rank - 1) // 2
        assert cut >= 1 and tail <= states.TAIL_TOL
        given_sup, given_tail = gkp_state(d, mu, kappa, delta, cut)  # the least cut, given, is the default
        assert given_tail == tail and np.array_equal(given_sup.coeffs, sup.coeffs)
        if cut > 1:  # one s_max less, or any below it, drops more
            for below in {cut - 1, data.draw(st.integers(0, cut - 1))}:
                with pytest.raises(ValueError, match="s_max too small"):
                    gkp_state(d, mu, kappa, delta, below)

    def test_grid_sensor_term_count(self):
        sup, tail = grid_sensor(0.1)
        assert 35 <= sup.rank <= 60
        assert tail <= 1e-8
        c = np.abs(sup.coefficients())
        assert np.allclose(c, c[::-1], atol=1e-14)

    @pytest.mark.parametrize(
        "delta, t_max, tail",
        [
            (0.3, 8, 2.2737566788685772e-10),
            (0.1, 24, 7.40929901202674e-09),
            (0.05, 50, 4.797488714268271e-09),
            (0.01, 258, 9.184202831462764e-09),
        ],
    )
    def test_grid_sensor_search_keeps_t_max_and_tail(self, delta, t_max, tail):
        # the values of growing t_max one candidate at a time, each candidate
        # summing its own tail outward
        sup, got = grid_sensor(delta)
        assert sup.rank == 2 * t_max + 1
        assert abs(got - tail) <= 1e-12 * tail

    @pytest.mark.parametrize(
        "build",
        [lambda: grid_sensor(1e-5), lambda: gkp_state(2, 0, 0.0, 0.3, 5), lambda: gkp_state(2, 0, 0.0, 0.3)],
        ids=["grid-search", "gkp-flat-envelope", "gkp-flat-search"],
    )
    def test_truncation_past_the_shell_cap_raises_before_any_term(self, build, monkeypatch):
        # grid_sensor(1e-5) would sum ~366k shells and build ~594k terms; a flat
        # GKP envelope never drops.  Each ends at MAX_SHELLS with an error,
        # not with a cut of 1 or a zero tail, and before any term is built
        def no_terms(*args):
            raise AssertionError("a term was built")

        monkeypatch.setattr(stellar, "apply_gate", no_terms)
        with pytest.raises(ValueError, match="shells"):
            build()

    def test_grid_requires_positive_delta(self):
        with pytest.raises(ValueError):
            grid_sensor(-0.1)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan])
    def test_grid_deltas_must_be_positive_and_finite(self, delta):
        for build in (grid_sensor, naive_grid_extent):
            with pytest.raises(ValueError, match="delta must be positive"):
                build(delta)

    def test_naive_extent_is_the_theta_sum_at_any_delta(self):
        import mpmath

        mpmath.mp.dps = 40

        def theta(d):  # sum over all integers t of e^{-pi d^2 t^2}
            return mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * d * d))

        for delta in (0.003, 0.01, 0.07, 0.3, 0.99, 1.0, 1.01, 2.5, 40.0):
            d = mpmath.mpf(delta)
            whole, squares = theta(d), theta(d * mpmath.sqrt(2))
            naive, one_sided = whole**2 / squares, ((whole + 1) / 2) ** 2 / ((squares + 1) / 2)
            assert abs(naive_grid_extent(delta) / naive - 1) <= 1e-15
            assert abs(naive_grid_extent(delta, one_sided=True) / one_sided - 1) <= 1e-15
        # far below the table the sums are 1/delta and (1/delta + 1)/2 to double precision
        assert naive_grid_extent(1e-7) == pytest.approx(math.sqrt(2) * 1e7, rel=1e-15)
        assert naive_grid_extent(1e-7, one_sided=True) == pytest.approx((1e7 + 1) ** 2 / (2e7 / math.sqrt(2) + 2), rel=1e-15)

    def test_naive_extent_scaling(self):
        values = {d: naive_grid_extent(d) for d in (0.3, 0.2, 0.1, 0.05, 0.025, 0.01)}
        keys = sorted(values, reverse=True)
        assert all(values[a] < values[b] for a, b in zip(keys, keys[1:]))
        for d in (0.05, 0.025, 0.01):
            c = values[d] * d
            assert 1.3 <= c <= 1.5


class TestMeasures:
    def test_faithfulness_exact(self):
        rep = measures(single_gaussian(GaussianPure.coherent([0.7])))
        assert rep.extent_upper == 1.0
        assert rep.rank == 1

    def test_even_cat_extent(self):
        rep = measures(cat_state(1.0, +1))
        assert abs(rep.extent_upper - 1.76160) < 1e-4

    def test_unitary_invariance(self, rng):
        sup = cat_state(1.2, +1)
        two_mode = Superposition(
            [WeightedGaussian(e.coeff, tensor(e.term, GaussianPure.vacuum(1))) for e in sup.entries],
            l1=sup.l1,
        )
        op = GaussianUnitary.from_gates(random_circuit(2, 6, rng), 2)
        from gsim.simulator import evolve

        moved = evolve(two_mode, op)
        assert moved.rank == two_mode.rank
        assert moved.l1 == two_mode.l1
        r0, r1 = measures(two_mode), measures(moved)
        assert abs(r0.extent_upper - r1.extent_upper) < 1e-10

    def test_heterodyne_monotonicity_statistical(self, rng):
        # importance-sampled outcome average of the conditioned extent
        sup = cat_state(1.0, +1)
        two_mode = Superposition(
            [WeightedGaussian(e.coeff, tensor(e.term, GaussianPure.vacuum(1))) for e in sup.entries],
            l1=sup.l1,
        )
        op = GaussianUnitary.from_gates([BeamSplitter(0, 1, np.pi / 4, 0.0)], 2)
        from gsim.simulator import evolve

        state = evolve(two_mode, op)
        base_extent = measures(state).extent_upper
        vals, weights = [], []
        for _ in range(200):
            # proposal: coherent outcomes near the term means
            e = state.entries[int(rng.integers(0, state.rank))]
            mu = e.term.mean[2:]
            xi = (mu[0] + 1j * mu[1]) / np.sqrt(2) + (rng.normal() + 1j * rng.normal()) * np.sqrt(0.5)
            # proposal density over d^2 xi
            q = 0.0
            for e2 in state.entries:
                m2 = (e2.term.mean[2] + 1j * e2.term.mean[3]) / np.sqrt(2)
                q += np.exp(-abs(xi - m2) ** 2) / np.pi
            q /= state.rank
            cond, log_scale = condition(state, [1], [xi])
            p = cond.norm_squared() * np.exp(log_scale) / np.pi  # true outcome density (state normalized)
            assert cond.rank <= state.rank
            vals.append(measures(cond).extent_upper * p / q)
            weights.append(p / q)
        mean_ext = np.sum(vals) / np.sum(weights) if np.sum(weights) else 0.0
        se = np.std(np.asarray(vals) / np.mean(weights)) / np.sqrt(len(vals))
        assert mean_ext <= base_extent + 2 * se


class TestWitness:
    def test_squeezed_ring_saturates(self):
        ring = fock1_ring(optimal_fock1_seed(), 8)
        report = witness_check(ring, optimal_fock1_witness())
        assert report.all_equal
        assert abs(report.max_modulus - 1.0) < 1e-9

    def test_coherent_ring_subsaturates(self):
        ring = fock1_ring(coherent_ring_seed(), 8)
        report = witness_check(ring, optimal_fock1_witness())
        assert report.all_equal
        expected = np.exp(-0.5) / math.sqrt(FOCK1_FIDELITY)
        assert abs(report.max_modulus - expected) < 1e-9
        assert report.max_modulus < 1.0

    def test_cat_symmetry(self):
        from gsim.states import Witness

        sup = cat_state(1.3, +1)
        report = witness_check(sup, Witness(1, 1.0))
        assert report.all_equal


class TestBounds:
    def test_breeding_examples(self):
        assert breeding_lower_bound(7.496) == 4
        assert breeding_lower_bound(28.701) == 15
        assert breeding_lower_bound(2.0) == 1

    def test_boson_sampling_examples(self):
        assert boson_sampling_bound(0) == (1.0, 1.0)
        cost, _ = boson_sampling_bound(1)
        assert abs(cost - 2.09253) < 1e-5
        cost10, cls10 = boson_sampling_bound(10)
        assert abs(cost10 - 1.61e3) < 20
        assert cost10 < cls10

    def test_inequality_over_range(self):
        for m in range(1, 21):
            cost, classical = boson_sampling_bound(m)
            assert cost < classical


def test_nonmultiplicative_fidelity_pair():
    from gsim.apps import TWO_MODE_REFERENCE_PARAMS, two_mode_fock11_fidelity

    val = two_mode_fock11_fidelity(TWO_MODE_REFERENCE_PARAMS)
    assert val >= 0.25 - 1e-3
    assert val > FOCK1_FIDELITY**2
    assert abs(FOCK1_FIDELITY**2 - 0.22838) < 1e-4


def test_optimal_witness_feasible_on_random_gaussians(rng):
    # the optimality witness never exceeds unit modulus on Gaussian states
    from conftest import engine_state, random_pure_program
    from gsim.states import optimal_fock1_witness

    w = optimal_fock1_witness()
    for _ in range(200):
        g = engine_state(random_pure_program(1, rng, alpha_max=2.0, r_max=1.5), 1)
        assert abs(np.conj(w.scale) * stellar.fock_amplitude(g.bargmann, w.fock_n)) <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["coherent", "cat", "ring32", "grid0.3"])
def test_mean_photon_husimi_matches_propagated_reference(name):
    sup = {
        "coherent": lambda: single_gaussian(GaussianPure.coherent([0.5 + 0.3j])),
        "cat": lambda: cat_state(1.0),
        "ring32": lambda: fock1_ring(optimal_fock1_seed(), 16),
        "grid0.3": lambda: grid_sensor(0.3)[0],
    }[name]()
    terms, coeffs = sup.terms(), sup.coefficients()  # no repeated terms here
    n = sup.n

    def g(t):
        # rotate every term by propagating it, and rebuild its triple from (cov, mean)
        op = GaussianUnitary.from_gates([PhaseShift(k, t) for k in range(n)], n)
        rotated = []
        for term in terms:
            r = propagate(term, op)
            a, b, _ = stellar.pure_state_params(r.cov, r.mean)
            rotated.append(stellar.StellarParams(a, b, np.log(r.ref_overlap)))
        return sum(
            np.conj(ci) * cj * stellar.state_overlap(ti.bargmann, rj)
            for ci, ti in zip(coeffs, terms)
            for cj, rj in zip(coeffs, rotated)
        )

    h = 1e-3
    d1 = (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)
    reference = max(float(np.imag(d1) / sup.norm_squared()), 0.0) + n
    assert abs(sup.mean_photon_husimi() - reference) <= 1e-10 * reference


def test_general_gram_pairs_are_the_upper_triangle(monkeypatch):
    # a general form streams its row-major pairs i < j in blocks of
    # AMPLITUDE_CHUNK, each built in O(K + block): together they are
    # np.triu_indices(k, 1), values and dtype, for blocks that split rows or
    # hold them all; with zero overlaps its form is ||c||^2
    seen = []

    def recording(t1, t2, i, j):
        assert 0 < i.shape[0] <= states.AMPLITUDE_CHUNK
        seen.append((i, j))
        return np.zeros(i.shape[0], dtype=complex), np.zeros(i.shape[0])

    monkeypatch.setattr(stellar, "state_overlaps", recording)
    for chunk in (1, 7, 64, states.AMPLITUDE_CHUNK):
        monkeypatch.setattr(states, "AMPLITUDE_CHUNK", chunk)
        for k in range(1, 71):
            sup = Superposition.from_stack(np.arange(1.0, k + 1.0), stellar.vacuum(1, k))
            assert sup.gram_form[0] == float(np.sum(sup.coeffs.real**2))
            want_i, want_j = np.triu_indices(k, 1)
            i, j = (np.concatenate([pair[n] for pair in seen] or [want_i[:0]]) for n in (0, 1))
            seen.clear()
            assert i.dtype == want_i.dtype and j.dtype == want_j.dtype
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_gram_and_husimi_memory_stay_below_gathered_copies():
    # the overlap kernel gathers its pairs from index vectors chunk by chunk;
    # gathered (P, m, m) copies of the triples for all 130816 Gram pairs and
    # 262144 Husimi pairs of a rank-512 ring would peak at ~23 MB and ~38 MB
    import tracemalloc

    ring = fock1_ring(optimal_fock1_seed(), 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Superposition.from_stack(ring.coeffs, ring.triples).gram_form
        gram_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ring.mean_photon_husimi()
        husimi_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gram_peak < 15e6
    assert husimi_peak < 15e6


def test_amplitude_batch_in_blocks_matches_single_outcomes(monkeypatch):
    # blocks of the probe axis that do not divide the probe count, over a
    # stack with a repeated term: every probe equals its single-outcome sweep
    import gsim.states as states_module

    ring = fock1_ring(optimal_fock1_seed(), 3)
    terms, coeffs = ring.terms(), ring.coefficients()
    sup = Superposition(list(zip(coeffs, terms)) + [(0.3 - 0.2j, terms[1])])
    rng = np.random.default_rng(5)
    xis = (rng.normal(size=23) + 1j * rng.normal(size=23)).reshape(-1, 1)
    monkeypatch.setattr(states_module, "AMPLITUDE_CHUNK", 2 * 6 + 1)  # 2 probes per block over 6 triples
    batch = sup.coherent_amplitude_batch(xis)
    single = np.array([sup.coherent_amplitude(xi) for xi in xis])
    assert np.allclose(batch, single, rtol=1e-12, atol=0)


def test_given_l1_must_be_the_coefficient_sum():
    # sampling and the fast norm's Z <= 1 rest on l1 = sum |c_j|
    cat = cat_state(1.0, +1)
    assert Superposition(cat.entries, l1=cat.l1).l1 == cat.l1
    with pytest.raises(ValueError, match="sum of coefficient moduli"):
        Superposition(cat.entries, l1=2 * cat.l1)


def test_entries_sharing_a_term_add_their_coefficients():
    g, h = GaussianPure.coherent([0.4 - 0.1j]), GaussianPure.coherent([-0.3 + 0.5j])
    c1, c2, c3 = 0.6 + 0.2j, -0.1 + 0.3j, 0.5 - 0.4j
    merged = Superposition([(c1, g), (c2, g), (c3, h)])
    explicit = Superposition([(c1 + c2, g), (c3, h)])
    assert merged.rank == 2
    assert np.array_equal(merged.coefficients(), [c1 + c2, c3])
    assert [e.term for e in merged.entries] == [g, h]
    assert merged.norm_squared() == pytest.approx(explicit.norm_squared(), rel=1e-14)
    for xi in ([0.0], [0.2 + 0.3j], [-1.0 + 0.5j]):
        assert merged.coherent_amplitude(xi) == pytest.approx(explicit.coherent_amplitude(xi), rel=1e-14)


ORBIT_STATES = {
    "ring-optimal-16": lambda: fock1_ring(optimal_fock1_seed(), 8),
    "ring-optimal-512": lambda: fock1_ring(optimal_fock1_seed(), 256),
    "ring-coherent-128": lambda: fock1_ring(coherent_ring_seed(), 64),
    "rotational": lambda: rotational_code(3, 1, 2.0),
    "grid-0.1": lambda: grid_sensor(0.1)[0],
    "grid-0.05": lambda: grid_sensor(0.05)[0],
    "gkp": lambda: gkp_state(2, 0, 0.3, 0.3, 5)[0],
    "gkp-3-1": lambda: gkp_state(3, 1, 0.3, 0.3, 6)[0],
    "cat-even": lambda: cat_state(0.8 - 0.5j, +1),
    "cat-odd": lambda: cat_state(0.8 - 0.5j, -1),
}


@pytest.mark.parametrize("name", sorted(ORBIT_STATES))
def test_orbit_gram_equals_the_general_gram(name):
    # one row of K - 1 overlaps, which stands for the Hermitian Toeplitz
    # Gram, against all K(K-1)/2 pairs of the general kernel
    sup = ORBIT_STATES[name]()
    k, t = sup.rank, sup.triples
    general = Superposition.from_stack(sup.coeffs, t)
    assert sup.orbit is True and general.orbit is False
    library = sup.gram_form
    counters.tally.reset()
    fresh = Superposition.from_stack(sup.coeffs, t, orbit=True)
    assert fresh.pending_pairs == k - 1
    assert fresh.gram_form == library  # both read the same row
    assert counters.tally.overlap_evals == k - 1 and fresh.pending_pairs == 0
    counters.tally.reset()
    assert general.pending_pairs == k * (k - 1) // 2
    general.gram_form
    assert counters.tally.overlap_evals == k * (k - 1) // 2 and general.pending_pairs == 0
    row, _ = stellar.state_overlaps(t, t, np.zeros(k - 1, dtype=np.intp), np.arange(1, k))
    i, j = np.triu_indices(k, 1)
    assert np.max(np.abs(row[j - i - 1] - stellar.state_overlaps(t, t, i, j)[0])) <= 1e-14
    (value, bound), (general_value, general_bound) = sup.gram_form, general.gram_form
    assert abs(value - general_value) <= bound + general_bound
    assert abs(sup.norm_squared() - general.norm_squared()) <= 1e-12 * general.norm_squared()


def test_a_stack_built_from_entries_starts_without_a_gram():
    lib = grid_sensor(0.3)[0]
    lib.norm_squared()
    fresh = Superposition(lib.entries, l1=lib.l1)
    assert fresh.orbit is False and fresh.pending_pairs == fresh.rank * (fresh.rank - 1) // 2
    counters.tally.reset()
    fresh.norm_squared()
    assert counters.tally.overlap_evals == fresh.rank * (fresh.rank - 1) // 2
    k, t = lib.rank, lib.triples
    row, _ = stellar.state_overlaps(t, t, np.zeros(k - 1, dtype=np.intp), np.arange(1, k))  # the row lib's form reads
    i, j = np.triu_indices(k, 1)
    g, _ = stellar.state_overlaps(fresh.triples, fresh.triples, i, j)  # the pairs fresh's form reads
    assert np.max(np.abs(g - row[j - i - 1])) <= 1e-14


def _conditioned(modes: int, initial: dict, rng) -> Superposition:
    """A library state on modes + 1 modes through a random circuit,
    heterodyned on its last mode: a general stack on ``modes`` modes."""
    sup = cli._initial_state(cli.read_initial(initial), modes + 1)
    gates = [BeamSplitter(modes - 1, modes, 0.6, 0.2)] + random_circuit(modes + 1, 4, rng)
    out, _ = condition(evolve(sup, GaussianUnitary.from_gates(gates, modes + 1)), [modes], [complex(*rng.normal(size=2))])
    assert out.n == modes and out.rank == sup.rank and not out.orbit
    return out


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_general_form_lies_within_its_bound_of_the_exact_sum(modes):
    # c^+ G c summed in 50 digits from the overlaps that the form reads, at
    # ranks 2 to 200: the row sums of the general form stay within its bound
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(41 + modes)
    rings = [{"kind": "fock1_ring", "N": n} for n in (int(rng.integers(2, 100)), 100)]
    for initial in [{"kind": "cat", "alpha": [0.6, 0.3]}, {"kind": "grid", "delta": 0.3}] + rings:
        out = _conditioned(modes, initial, rng)
        value, bound = out.gram_form
        i, j = np.triu_indices(out.rank, 1)
        g, _ = stellar.state_overlaps(out.triples, out.triples, i, j)
        with mp.workdps(50):
            c = [mp.mpc(x) for x in out.coeffs.tolist()]
            pairs = (mp.re(mp.conj(c[a]) * mp.mpc(x) * c[b]) for a, b, x in zip(i.tolist(), j.tolist(), g.tolist()))
            exact = mp.fsum(abs(x) ** 2 for x in c) + 2 * mp.fsum(pairs)
            assert abs(mp.mpf(value) - exact) <= bound, (initial, value, exact, bound)


def test_fresh_general_form_builds_no_dense_gram():
    # a one-mode conditioned fock1 ring of rank 1024: its 523776 pairs would
    # take about 21 MB stored (indices, overlaps, weights) and a dense K x K
    # Gram more; blocks of AMPLITUDE_CHUNK pairs keep the peak near 4 MB
    import tracemalloc

    out = _conditioned(1, {"kind": "fock1_ring", "N": 512}, np.random.default_rng(7))
    tracemalloc.start()
    try:
        value, bound = out.gram_form
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6 and 0 < bound < value


def test_streamed_form_equals_one_bincount_over_all_pairs():
    # a conditioned ring of rank 512: 130816 pairs, 6 blocks whose edges split
    # rows; adding each term into its row's sum in pair order gives the bits
    # of one np.bincount over every pair
    out = _conditioned(1, {"kind": "fock1_ring", "N": 256}, np.random.default_rng(3))
    k = out.rank
    i, j = np.triu_indices(k, 1)
    row_starts = np.flatnonzero(np.diff(i)) + 1
    edges = np.arange(states.AMPLITUDE_CHUNK, i.shape[0], states.AMPLITUDE_CHUNK)
    assert k >= 512 and edges.shape[0] >= 5 and not np.isin(edges, row_starts).all()
    g, w = stellar.state_overlaps(out.triples, out.triples, i, j)
    w += stellar.UNIT_ROUNDOFF * k * np.abs(g)
    c, a = out.coeffs, np.abs(out.coeffs)
    value = float(np.real(np.conj(c) @ c) + 2.0 * np.bincount(i, (np.conj(c)[i] * g * c[j]).real, k).sum())
    bound = float(stellar.UNIT_ROUNDOFF * k * (a @ a) + 2.0 * np.bincount(i, a[i] * w * a[j], k).sum())
    assert out.gram_form == (value, bound)
