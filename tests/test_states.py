import math

import numpy as np
import pytest

from gsim import counters, fock, stellar
from gsim.exceptions import IllConditioned, InvariantViolation
from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze
from gsim.gaussian import GaussianPure, tensor
from gsim.phase import GaussianUnitary, propagate
from gsim.simulator import condition
from gsim.states import (
    FOCK1_EXTENT,
    FOCK1_FIDELITY,
    GramCell,
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
    seed_fock1_amplitude,
    single_gaussian,
    witness_check,
)

from conftest import random_circuit


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
        amp1 = seed_fock1_amplitude(optimal_fock1_seed())
        coeffs = [np.exp(-1j * np.pi * m / big_n) / (2 * big_n * amp1) for m in range(2 * big_n)]
        vec = ring_oracle_vector(seed_gates, big_n, coeffs)
        fid = abs(vec[1]) ** 2 / np.vdot(vec, vec).real
        assert fid >= 1.0 - 1e-6

    def test_vanishing_seed_amplitude_rejected(self):
        with pytest.raises(ValueError):
            fock1_ring(GaussianPure.vacuum(1), 8)

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


class TestRotationalCode:
    def test_m1_is_cat(self):
        code = rotational_code(1, 0, 1.0)
        cat = cat_state(1.0, +1)
        assert code.rank == 2
        assert abs(code.norm_squared() - 1.0) < 1e-10
        # same physical state: cross overlap has modulus 1
        from gsim.simulator import cross_overlap

        assert abs(abs(cross_overlap(code, cat)) - 1.0) < 1e-10

    def test_m2_rank_and_norm(self):
        code = rotational_code(2, 0, 2.0)
        assert code.rank == 4
        assert abs(code.norm_squared() - 1.0) < 1e-10

    def test_mu_sectors_orthogonal(self):
        c0 = rotational_code(2, 0, 2.0)
        c1 = rotational_code(2, 1, 2.0)
        from gsim.simulator import cross_overlap

        assert abs(cross_overlap(c0, c1)) < 1e-6


class TestGridStates:
    def test_gkp_single_term_limit(self):
        # the one-term truncation is the plain squeezed vacuum; the dropped
        # mass is large, so the caller must opt in via tail_tol
        sup, _ = gkp_state(2, 0, 0.3, 0.3, 0, tail_tol=2.0)
        assert sup.rank == 1
        assert measures(sup).extent_upper == 1.0
        with pytest.raises(ValueError):
            gkp_state(2, 0, 0.3, 0.3, 0)

    def test_gkp_term_count_and_symmetry(self):
        sup, _ = gkp_state(2, 0, 0.3, 0.3, 5)
        assert sup.rank == 11
        c = np.abs(sup.coefficients())
        assert np.allclose(c, c[::-1], atol=1e-12)

    def test_gkp_envelope_ratio(self):
        sup, _ = gkp_state(2, 0, 0.3, 0.3, 5, normalize=False)
        alpha_d = math.sqrt(math.pi)
        expected = math.exp(-0.5 * 0.09 * alpha_d**2 * 4)
        ratio = abs(sup.entries[6].coeff / sup.entries[5].coeff)
        assert abs(ratio - expected) < 1e-12

    def test_gkp_tail_guard(self):
        with pytest.raises(ValueError):
            gkp_state(2, 0, 0.1, 0.3, 1, tail_tol=1e-8)

    def test_gkp_tail_bounds_extent_change(self):
        base, tail = gkp_state(2, 0, 0.45, 0.35, 2, tail_tol=1.0)
        bigger, _ = gkp_state(2, 0, 0.45, 0.35, 3, tail_tol=1.0)
        e0 = measures(base).extent_upper
        e1 = measures(bigger).extent_upper
        # dropped-l1 mass controls the extent shift (small-perturbation bound)
        assert abs(e1 - e0) <= 5.0 * e0 * tail

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
        assert abs(grid_sensor(delta, t_max)[1] - tail) <= 1e-12 * tail

    @pytest.mark.parametrize("t_max", [3.5, -2, 3.0, True, "3"])
    def test_grid_t_max_must_be_a_non_negative_integer(self, t_max):
        with pytest.raises(ValueError, match="t_max must be a non-negative integer"):
            grid_sensor(0.3, t_max)
        assert grid_sensor(0.3, 0)[0].rank == 1
        assert grid_sensor(0.3, np.int64(3))[0].rank == 7

    def test_grid_tail_tol_must_be_non_negative(self):
        # no tail is below a negative tolerance, so the t_max search would not end
        with pytest.raises(ValueError, match="tail_tol must be non-negative"):
            grid_sensor(0.3, tail_tol=-1e-8)

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

    def test_approx_rank_bound(self):
        rep = measures(cat_state(1.0, +1))
        assert rep.approx_rank_bound(0.1) == pytest.approx(1.0 + rep.extent_upper / 0.01)

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
        assert abs(w.term_amplitude(g)) <= 1.0 + 1e-9


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


def test_gram_and_husimi_memory_stay_below_gathered_copies():
    # the overlap kernel gathers its pairs from index vectors chunk by chunk;
    # gathered (P, m, m) copies of the triples for all 130816 Gram pairs and
    # 262144 Husimi pairs of a rank-512 ring would peak at ~23 MB and ~38 MB
    import tracemalloc

    ring = fock1_ring(optimal_fock1_seed(), 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ring.gram
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
    "gkp-unnormalised": lambda: gkp_state(3, 1, 0.3, 0.3, 6, normalize=False)[0],
}


@pytest.mark.parametrize("name", sorted(ORBIT_STATES))
def test_orbit_gram_equals_the_general_gram(name):
    # one row of K - 1 overlaps, gathered into the Hermitian Toeplitz
    # matrix, against all K(K-1)/2 pairs of the general kernel
    sup = ORBIT_STATES[name]()
    cell = sup.gram_cell
    general = Superposition.from_stack(sup.coeffs, sup.triples)
    assert cell.orbit is True and general.gram_cell.orbit is False
    counters.tally.reset()
    orbit_gram = GramCell(cell.triples, cell.orbit).matrix
    assert counters.tally.overlap_evals == sup.rank - 1
    assert np.array_equal(orbit_gram, sup.gram)
    counters.tally.reset()
    assert np.max(np.abs(orbit_gram - general.gram)) <= 1e-14
    assert counters.tally.overlap_evals == sup.rank * (sup.rank - 1) // 2
    assert abs(sup.norm_squared() - general.norm_squared()) <= 1e-12 * general.norm_squared()


def test_a_stack_built_from_entries_starts_without_a_gram():
    lib = grid_sensor(0.3)[0]
    lib.norm_squared()
    fresh = Superposition(lib.entries, l1=lib.l1)
    assert fresh.gram_cell is not lib.gram_cell and fresh.gram_cell.orbit is False
    assert "matrix" not in vars(fresh.gram_cell)
    counters.tally.reset()
    assert np.max(np.abs(fresh.gram - lib.gram)) <= 1e-14
    assert counters.tally.overlap_evals == fresh.rank * (fresh.rank - 1) // 2
