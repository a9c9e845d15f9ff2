import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsim import cli, counters, fock, stellar
from gsim.exceptions import IllConditioned
from gsim.gates import BeamSplitter, Displace, Squeeze, beamsplitter_unitary, program_symplectic
from gsim.gaussian import (
    GaussianMixed,
    GaussianPure,
    GeneralDyne,
    condition_on_generaldyne,
    generaldyne_density,
    tensor,
)
from gsim.phase import GaussianUnitary
from gsim.rng import stream
from gsim.simulator import (
    KERNEL_ULPS,
    SparsifyPlan,
    approx_born,
    condition,
    cross_overlap,
    evolve,
    exact_born,
    fast_norm,
    gaussian_fidelity_lower_bound,
    heterodyne_density,
    hoeffding_tail_check,
    sample_ensemble_member,
    sparsify,
)
from gsim.states import (
    AMPLITUDE_CHUNK,
    Superposition,
    WeightedGaussian,
    cat_state,
    fock1_ring,
    grid_sensor,
    measures,
    optimal_fock1_seed,
    single_gaussian,
)

from conftest import engine_state, random_circuit, random_pure_program


def cat_with_vacuum(alpha=1.0, parity=+1):
    sup = cat_state(alpha, parity)
    return Superposition(
        [WeightedGaussian(e.coeff, tensor(e.term, GaussianPure.vacuum(1))) for e in sup.entries],
        l1=sup.l1,
    )


def cat_three_modes():
    """cat(1) (x) vacuum^2 entangled by two beamsplitters."""
    sup = cat_state(1.0, +1)
    vac2 = GaussianPure.vacuum(2)
    sup = Superposition([WeightedGaussian(e.coeff, tensor(e.term, vac2)) for e in sup.entries], l1=sup.l1)
    mixer = GaussianUnitary.from_gates([BeamSplitter(0, 1, 0.7, 0.3), BeamSplitter(1, 2, 0.5, -0.2)], 3)
    return evolve(sup, mixer)


def cat_fock(alpha, parity, cutoff):
    vec = fock.coherent_column(alpha, cutoff) + parity * fock.coherent_column(-alpha, cutoff)
    return vec / np.linalg.norm(vec)


class TestEvolve:
    def test_identity(self):
        sup = cat_state(1.0, +1)
        out = evolve(sup, GaussianUnitary.identity(1))
        assert out.l1 == sup.l1 and out.rank == sup.rank
        assert abs(cross_overlap(sup, out) - 1.0) < 1e-12

    def test_displaced_cat_extent_invariant(self):
        sup = cat_state(1.0, +1)
        op = GaussianUnitary.from_gates([Displace(0, 0.6 - 0.4j)], 1)
        out = evolve(sup, op)
        assert abs(measures(out).extent_upper - measures(sup).extent_upper) < 1e-10

    def test_beamsplit_cat_vs_oracle(self):
        sup = cat_with_vacuum(1.0)
        gates = [BeamSplitter(0, 1, np.pi / 4, 0.2)]
        out = evolve(sup, GaussianUnitary.from_gates(gates, 2))
        assert out.rank == 2
        cut = 40
        vec = np.einsum("i,j->ij", cat_fock(1.0, +1, cut), fock.coherent_column(0.0, cut))
        fv = fock.FockVector(vec, cut)
        for g in gates:
            fv = fock.apply_gate(fv, g)
        for xi in ([0.0, 0.0], [0.4 - 0.1j, 0.2j], [1.0, -0.5]):
            got = exact_born(out, xi).value
            want = fock.oracle_born(fv, xi)
            assert abs(got - want) < 1e-8


class TestSharedGram:
    def test_evolve_reuses_a_computed_gram(self):
        ring = fock1_ring(optimal_fock1_seed(), 8)
        ring.gram
        op = GaussianUnitary.from_gates([Squeeze(0, 0.3, 0.4), Displace(0, 0.5 - 0.2j)], 1)
        counters.tally.reset()
        out = evolve(evolve(ring, op), op)
        out.norm_squared()
        exact_born(out, [0.3 + 0.1j])
        gaussian_fidelity_lower_bound(out)
        assert counters.tally.overlap_evals == 0
        assert out.gram is ring.gram

    def test_evolve_computes_no_gram(self):
        # an evolved state takes its own orbit row, which never fills the
        # parent's cell: every sibling costs the same K - 1 overlaps
        ring = fock1_ring(optimal_fock1_seed(), 8)
        for phi in (0.3, 0.7):
            counters.tally.reset()
            out = evolve(ring, GaussianUnitary.from_gates([Squeeze(0, 0.3, phi)], 1))
            assert counters.tally.overlap_evals == 0 and "matrix" not in vars(out.gram_cell)
            assert out.gram_cell.orbit
            out.norm_squared()
            assert counters.tally.overlap_evals == 15 and "matrix" not in vars(ring.gram_cell)
            assert np.max(np.abs(out.gram - Superposition.from_stack(out.coeffs, out.triples).gram)) <= 1e-14

    def test_conditioned_and_sparsified_states_take_a_general_gram(self):
        ring = cli._initial_state(cli.read_initial({"kind": "fock1_ring", "N": 4}), 2)
        ring.gram
        mixed = evolve(ring, GaussianUnitary.from_gates([BeamSplitter(0, 1, 0.6)], 2))
        counters.tally.reset()
        out, _ = condition(mixed, [1], [0.4 - 0.2j])
        assert not out.gram_cell.orbit and counters.tally.overlap_evals == 0
        out.gram
        assert counters.tally.overlap_evals == out.rank * (out.rank - 1) // 2 == 28
        sparse = sparsify(ring, SparsifyPlan(0.5, seed=1))
        counters.tally.reset()
        sparse.gram
        assert not sparse.gram_cell.orbit
        assert counters.tally.overlap_evals == sparse.rank * (sparse.rank - 1) // 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    kind=st.sampled_from(["fock1_ring", "cat", "grid", "gkp", "random"]),
    chains=st.integers(1, 3),
)
def test_carried_gram_equals_a_fresh_one(seed, n, kind, chains):
    """After evolve chains, the Gram a state shares with its ancestor (padded
    with vacuum modes as the CLI does) equals the one its own triples give."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        terms = [engine_state(random_pure_program(n, rng, 1.5, 0.6), n) for _ in range(4)]
        sup = Superposition(list(zip(rng.normal(size=4) + 1j * rng.normal(size=4), terms)))
    else:
        init = {"fock1_ring": {"N": 4}, "cat": {"alpha": [0.8, 0.3], "parity": "-"}, "grid": {"delta": 0.3}, "gkp": {}}
        sup = cli._initial_state(cli.read_initial({"kind": kind, **init[kind]}), n)
    for _ in range(chains):
        sup = evolve(sup, GaussianUnitary.from_gates(random_circuit(n, 4, rng, alpha_max=0.8, r_max=0.5), n))
    fresh = Superposition.from_stack(sup.coeffs, sup.triples)
    assert np.max(np.abs(sup.gram - fresh.gram)) <= 1e-13


class TestCondition:
    def test_product_state_passthrough(self):
        sup = cat_with_vacuum(0.9)
        cond, log_scale = condition(sup, [1], [0.7 - 0.2j])
        # kept part identical up to one global scalar on the coefficients
        ratios = [
            cond.entries[k].coeff / sup.entries[k].coeff for k in range(sup.rank)
        ]
        assert abs(ratios[0] - ratios[1]) < 1e-12
        for k in range(sup.rank):
            assert np.allclose(cond.entries[k].term.cov, sup.entries[k].term.cov[:2, :2])
            assert np.allclose(cond.entries[k].term.mean, sup.entries[k].term.mean[:2])
        # weight = |<xi|0>|^2 for the measured vacuum mode
        assert abs(cond.norm_squared() * np.exp(log_scale) - np.exp(-abs(0.7 - 0.2j) ** 2)) < 1e-12

    def test_rank_never_increases(self, rng):
        sup = evolve(
            cat_with_vacuum(1.0), GaussianUnitary.from_gates(random_circuit(2, 6, rng), 2)
        )
        for _ in range(25):
            xi = rng.normal() + 1j * rng.normal()
            cond, _ = condition(sup, [1], [xi])
            assert cond.rank <= sup.rank

    def test_conditional_amplitudes_vs_oracle(self, rng):
        gates = random_circuit(2, 8, rng)
        sup = evolve(cat_with_vacuum(1.0), GaussianUnitary.from_gates(gates, 2))
        cut = 40
        vec = np.einsum("i,j->ij", cat_fock(1.0, +1, cut), fock.coherent_column(0.0, cut))
        fv = fock.FockVector(vec, cut)
        for g in gates:
            fv = fock.apply_gate(fv, g)
        xi_b = 0.3 - 0.5j
        cond, log_scale = condition(sup, [1], [xi_b])
        fv_cond = fock.condition_on_coherent(fv, 1, xi_b)
        assert abs(cond.norm_squared() * np.exp(log_scale) - fv_cond.norm_squared()) < 1e-8
        for xi in (0.0, 0.6 + 0.2j):
            got = exact_born(cond, [xi]).value
            want = fock.oracle_born(fv_cond, [xi])
            assert abs(got - want) < 1e-8

    @pytest.mark.parametrize("xi", [20.0, 28.0, 30.0, 40.0])
    def test_far_outcome_keeps_log_valued_weights(self, xi):
        # cat(1) (x) vacuum through BeamSplitter(0, 1, 0.6), conditioned on mode
        # 1: from xi ~ 28 every reduced norm underflows in double precision.  A
        # beamsplitter maps |a, 0> to the coherent |U (a, 0)>, so a 50-digit
        # sum over the two coherent terms is the reference.
        sup = evolve(cat_with_vacuum(1.0), GaussianUnitary.from_gates([BeamSplitter(0, 1, 0.6)], 2))
        cond, log_scale = condition(sup, [1], [xi])
        assert cond.rank == 2
        mpmath.mp.dps = 50
        u = beamsplitter_unitary(0.6, 0.0)

        def amp(x, beta):  # <x|beta> for coherent states
            x, beta = mpmath.mpc(x), mpmath.mpc(beta)
            return mpmath.exp(-abs(x) ** 2 / 2 - abs(beta) ** 2 / 2 + mpmath.conj(x) * beta)

        coeff = 1 / mpmath.sqrt(2 * (1 + mpmath.exp(-2)))
        betas = [u @ np.array([a, 0.0]) for a in (1.0, -1.0)]
        w = [coeff * amp(xi, beta[1]) for beta in betas]
        norm = sum(mpmath.conj(w[i]) * w[j] * amp(betas[i][0], betas[j][0]) for i in range(2) for j in range(2))
        y = 0.3
        born = abs(sum(wi * amp(y, beta[0]) for wi, beta in zip(w, betas))) ** 2 / (mpmath.pi * norm.real)
        assert abs(exact_born(cond, [y]).value / float(born) - 1) < 1e-10
        # the weight stays finite as a log where it underflows
        assert abs(math.log(cond.norm_squared()) + log_scale - float(mpmath.log(norm.real))) < 1e-10

    @pytest.mark.parametrize(
        "modes, message", [([2], "mode index outside 0..1"), ([-1], "mode index outside 0..1"), ([1, 1], "distinct")]
    )
    def test_bad_measured_modes_rejected(self, modes, message):
        sup = cat_with_vacuum(1.0)
        with pytest.raises(ValueError, match=message):
            condition(sup, modes, [0.5] * len(modes))

    def test_heterodyne_density_matches_generaldyne_on_gaussian(self):
        sup = single_gaussian(GaussianPure.coherent([0.5, -0.3j][:1]))
        sup2 = Superposition(
            [WeightedGaussian(e.coeff, tensor(e.term, GaussianPure.vacuum(1))) for e in sup.entries]
        )
        xi = 0.4 + 0.1j
        p_engine = heterodyne_density(sup2, [1], [xi])
        quad = np.array([np.sqrt(2) * xi.real, np.sqrt(2) * xi.imag])
        p_quad = generaldyne_density(
            GaussianMixed.vacuum(1), GeneralDyne.heterodyne([0]), quad
        )
        # quadrature-outcome density carries the Jacobian factor 2^m
        assert abs(p_engine - 2.0 * p_quad) < 1e-12


def test_terms_carry_their_triples(monkeypatch):
    # evolve, condition and tensor build each term's triple without re-deriving
    # it from moments; the moments derived from that triple must match the
    # covariance formalism: the symplectic action (S S^T, d) on the vacuum and
    # general-dyne conditioning of it
    rng = np.random.default_rng(1234)
    no_params = lambda *a: pytest.fail("triple re-derived")  # noqa: E731
    for n in (1, 2, 3):
        for _ in range(10):
            gates = random_circuit(n, 10, rng, alpha_max=0.8, r_max=0.5)
            with monkeypatch.context() as m:
                m.setattr(stellar, "pure_state_params", no_params)
                start = Superposition([WeightedGaussian(1.0, GaussianPure.vacuum(n))])
                sup = evolve(start, GaussianUnitary.from_gates(gates, n))
                terms = [sup.entries[0].term]
                if n > 1:
                    xi = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
                    terms.append(condition(sup, list(range(1, n)), xi)[0].entries[0].term)
            s, d = program_symplectic(gates, n)
            expected = [GaussianMixed(s @ s.T, d)]
            if n > 1:
                r = np.sqrt(2) * np.column_stack([xi.real, xi.imag]).ravel()
                expected.append(condition_on_generaldyne(expected[0], GeneralDyne.heterodyne(range(1, n)), r))
            for g, ref in zip(terms, expected):
                assert np.max(np.abs(g.cov - ref.cov)) <= 1e-10
                assert np.max(np.abs(g.mean - ref.mean)) <= 1e-10
    # tensor hands over the direct sum of its factors' triples
    seed_gates = [Squeeze(0, 0.55, 0.3), Displace(0, 0.8 + 0.1j)]
    seed = evolve(single_gaussian(GaussianPure.vacuum(1)), GaussianUnitary.from_gates(seed_gates, 1)).entries[0].term
    mixer = BeamSplitter(0, 1, 0.6, 0.2)
    for second, second_gates in (
        (lambda: GaussianPure.vacuum(1), []),
        (lambda: GaussianPure.coherent([0.3 - 0.4j]), [Displace(1, 0.3 - 0.4j)]),
    ):
        with monkeypatch.context() as m:
            m.setattr(stellar, "pure_state_params", no_params)
            term = tensor(seed, second())
            mixed = evolve(single_gaussian(term), GaussianUnitary.from_gates([mixer], 2)).entries[0].term
        for g, gates in ((term, seed_gates + second_gates), (mixed, seed_gates + second_gates + [mixer])):
            s, d = program_symplectic(gates, 2)
            assert np.max(np.abs(g.cov - s @ s.T)) <= 1e-10
            assert np.max(np.abs(g.mean - d)) <= 1e-10


class TestExactBorn:
    def test_vacuum_convention(self):
        sup = single_gaussian(GaussianPure.vacuum(1))
        est = exact_born(sup, [0.0])
        assert abs(est.value - 1 / np.pi) < 1e-14
        quad = generaldyne_density(GaussianMixed.vacuum(1), GeneralDyne.heterodyne([0]), np.zeros(2))
        assert abs(est.value - 2.0 * quad) < 1e-14

    def test_even_cat_vs_oracle(self):
        sup = cat_state(1.0, +1)
        fv = fock.FockVector(cat_fock(1.0, +1, 60), 60)
        for xi in (0.0, 0.5, 1.2j, -0.7 + 0.3j):
            assert abs(exact_born(sup, [xi]).value - fock.oracle_born(fv, [xi])) < 1e-8

    def test_odd_cat_parity_zero(self):
        sup = cat_state(1.0, -1)
        assert exact_born(sup, [0.0]).value < 1e-10

    def test_later_calls_reuse_the_gram_form(self, monkeypatch):
        # the O(rank^2) form c^+ G c and its bound are evaluated once per
        # state; later exact_born calls read them back bit for bit
        import functools

        evaluations = []
        form = Superposition.gram_form.func

        def counted(self):
            evaluations.append(self)
            return form(self)

        memo = functools.cached_property(counted)
        memo.__set_name__(Superposition, "gram_form")
        monkeypatch.setattr(Superposition, "gram_form", memo)
        sup = fock1_ring(optimal_fock1_seed(), 16)
        first, second = exact_born(sup, [0.3 + 0.2j]), exact_born(sup, [0.3 + 0.2j])
        assert evaluations == [sup]
        assert first == second
        c = sup.coeffs
        nsq = float(np.real(np.conj(c) @ sup.gram @ c))
        amp = abs(complex(c @ stellar.coherent_amplitude(sup.triples, [0.3 + 0.2j])))
        assert first.norm_estimate == nsq and first.value == amp**2 / (np.pi * nsq)
        with pytest.raises(ValueError):
            sup.coeffs[0] = 0.0  # read-only, so the memo cannot go stale


class TestSparsify:
    def test_plan_arithmetic(self):
        sup = cat_state(1.0, +1)
        assert SparsifyPlan(0.1, 0).samples_for(sup.l1) == 177

    def test_single_gaussian_exact(self):
        sup = single_gaussian(GaussianPure.coherent([0.4]))
        om = sparsify(sup, SparsifyPlan(0.3, seed=1))
        assert om.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert abs(cross_overlap(sup, om) - 1.0) < 1e-12

    def test_expected_distance_bound(self):
        # mean ||psi - Omega||^2 over 200 seeded runs <= l1^2/k + 3 SE
        sup = cat_state(1.0, +1)
        plan_delta = 0.1
        k = SparsifyPlan(plan_delta, 0).samples_for(sup.l1)
        nsq = sup.norm_squared()
        dists = []
        for t in range(200):
            om = sparsify(sup, SparsifyPlan(plan_delta, seed=1000 + t))
            d2 = nsq + om.norm_squared() - 2 * cross_overlap(sup, om).real
            dists.append(d2)
        mean = np.mean(dists)
        se = np.std(dists) / np.sqrt(len(dists))
        assert mean <= sup.l1**2 / k + 3 * se
        assert mean <= plan_delta**2 + 3 * se

    def test_unbiasedness_and_norm_mean(self):
        sup = cat_state(1.0, +1)
        k = 40
        overlaps, norms = [], []
        for t in range(500):
            om = sparsify(sup, SparsifyPlan(0.5, seed=5000 + t, k=k))
            overlaps.append(cross_overlap(sup, om))
            norms.append(om.norm_squared())
        mean_overlap = np.mean(overlaps)
        se_o = np.std(np.real(overlaps)) / np.sqrt(500)
        assert abs(np.real(mean_overlap) - 1.0) <= 3 * se_o + 1e-12
        expected_norm = 1.0 + (sup.l1**2 - 1.0) / k
        se_n = np.std(norms) / np.sqrt(500)
        assert abs(np.mean(norms) - expected_norm) <= 3 * se_n

    def test_matches_per_draw_sum(self):
        # rebuilt draw by draw: each of the k draws adds (l1/k) e^{i arg c} |G>
        sup = fock1_ring(optimal_fock1_seed(), 8)
        plan = SparsifyPlan(0.2, seed=11)
        k = plan.samples_for(sup.l1)
        om = sparsify(sup, plan)
        draws = stream(11, 0).choice(sup.rank, size=k, p=np.abs(sup.coeffs) / sup.l1)
        assert om.rank == len(np.unique(draws)) < k
        weights = sup.l1 / k * np.exp(1j * np.angle(sup.coeffs[draws]))
        for xi in ([0.3 - 0.2j], [1.1 + 0.4j]):
            want = weights @ stellar.coherent_amplitude(sup.triples, xi)[draws]
            assert abs(om.coherent_amplitude(xi) - want) <= 1e-12 * abs(want)
        want = float(np.real(np.conj(weights) @ sup.gram[np.ix_(draws, draws)] @ weights))
        assert abs(om.norm_squared() - want) <= 1e-12 * want

    def test_norm_costs_distinct_pairs_only(self):
        sup, _ = grid_sensor(0.3)
        plan = SparsifyPlan(0.1, seed=2)
        counters.tally.reset()
        om = sparsify(sup, plan)
        assert counters.tally.samples == plan.samples_for(sup.l1) > om.rank
        counters.tally.reset()
        om.norm_squared()
        assert counters.tally.overlap_evals == om.rank * (om.rank - 1) // 2

    def test_approx_born_memory_follows_distinct_terms(self):
        # k = 1415 draws over 25 distinct grid terms: an R x R Gram of the draws
        # alone would take 32 MB
        import tracemalloc

        sup, _ = grid_sensor(0.1)
        tracemalloc.start()
        try:
            approx_born(sup, [0.3], 0.1, 0.1, 0.05, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestFastNorm:
    def test_vacuum_band_coverage(self):
        sup = single_gaussian(GaussianPure.vacuum(1))
        hits = 0
        for t in range(100):
            est = fast_norm(sup, 0.1, 0.05, seed=t)
            lo, hi = est.band
            hits += lo <= 1.0 <= hi
        assert hits >= 95

    def test_unnormalized_cat_norm(self):
        entries = [
            WeightedGaussian(1.0, GaussianPure.coherent([1.0])),
            WeightedGaussian(1.0, GaussianPure.coherent([-1.0])),
        ]
        sup = Superposition(entries)
        truth = 2.0 * (1.0 + np.exp(-2.0))
        assert abs(sup.norm_squared() - truth) < 1e-12
        hits = 0
        for t in range(100):
            est = fast_norm(sup, 0.1, 0.05, seed=t)
            lo, hi = est.band
            hits += lo <= truth <= hi
        assert hits >= 95

    def test_two_mode_band_coverage(self):
        sup = single_gaussian(tensor(GaussianPure.vacuum(1), GaussianPure.coherent([0.5 + 0.2j])))
        hits = 0
        for t in range(100):
            est = fast_norm(sup, 0.1, 0.05, seed=t)
            lo, hi = est.band
            hits += lo <= 1.0 <= hi
        assert hits >= 95

    def test_three_mode_entangled_band(self):
        # six normals and a term pick per probe, so a probe's row does not
        # start on a Philox block; the band holds at confidence 1 - p_fail on
        # any mode count
        sup = cat_three_modes()
        est = fast_norm(sup, 0.3, 0.003, seed=0)
        assert est.band[0] <= sup.norm_squared() <= est.band[1]

    def test_three_mode_coverage_at_nominal_level(self):
        sup = cat_three_modes()
        truth = sup.norm_squared()
        hits = 0
        for t in range(100):
            est = fast_norm(sup, 0.1, 0.05, seed=t)
            hits += est.band[0] <= truth <= est.band[1]
        assert hits >= 95

    def test_probe_row_depends_only_on_seed_and_index(self, monkeypatch):
        # a longer run (smaller epsilon) extends the probes of a shorter one
        sup = cat_with_vacuum(0.8)
        probes = []
        batch = stellar.coherent_amplitude_batch

        def capture(t, xis):
            probes[-1].append(np.array(xis))
            return batch(t, xis)

        monkeypatch.setattr(stellar, "coherent_amplitude_batch", capture)
        runs = []
        for eps, seed in ((0.5, 17), (0.3, 17), (0.5, 18)):
            probes.append([])
            runs.append(fast_norm(sup, eps, 0.5, seed=seed))
        short, long, other = (np.concatenate(p) for p in probes)
        assert short.shape[1] == 2 and runs[1].samples > runs[0].samples
        assert np.array_equal(long[: runs[0].samples], short[: runs[0].samples])
        assert not np.any(other[: runs[0].samples] == short[: runs[0].samples])

    def test_result_does_not_depend_on_the_block_size(self, monkeypatch):
        import gsim.states as states_module

        ring = fock1_ring(optimal_fock1_seed(), 8)
        want = fast_norm(ring, 0.1, 0.05, seed=3)
        for chunk in (16 * 3 + 5, 16 * 100, 1 << 14):
            monkeypatch.setattr(states_module, "AMPLITUDE_CHUNK", chunk)
            got = fast_norm(ring, 0.1, 0.05, seed=3)
            assert (got.eta, got.samples) == (want.eta, want.samples)

    def test_probes_are_consecutive_rows_of_one_stream(self):
        # probe i is mean + L box_muller(u_i) with u_i row i of the 2n + 1
        # uniforms per row read in order from stream (seed, 0), across draw blocks
        from gsim.phase import propagate
        from gsim.rng import box_muller
        from gsim.simulator import _husimi_probes

        gates = [Squeeze(0, 0.5, 0.3), BeamSplitter(0, 1, 0.7, 0.2), Displace(1, 0.3 - 0.4j)]
        sup = single_gaussian(propagate(GaussianPure.vacuum(2), GaussianUnitary.from_gates(gates, 2)))
        seed, count, n = 41, AMPLITUDE_CHUNK + 37, 2
        got = np.concatenate(list(_husimi_probes(sup, seed, count, 100)))
        u = stream(seed, 0).random((count, 2 * n + 1))
        mean, cov = stellar.husimi_gaussian(sup.triples)
        v = mean[0] + box_muller(u[:, :-1]) @ np.linalg.cholesky(cov[0]).T
        assert got.shape == (count, n)
        assert np.allclose(got, v[:, :n] + 1j * v[:, n:], rtol=0, atol=1e-12)

    def test_cancelling_state_falls_back_to_the_exact_norm(self):
        # Z has mean |psi|^2 / l1^2, tiny or zero here, so the stopping sum
        # cannot reach Upsilon_1 within Upsilon_1 K / (1 - eps) probes; the
        # exact Gram norm is returned then, banded by its rounding bound
        # u |c|^T W |c|, or IllConditioned once the bound reaches it
        eps, p_fail = 0.1, 0.05
        upsilon = 1.0 + (1.0 + eps) * 4.0 * (math.e - 2.0) * math.log(2.0 / p_fail) / eps**2
        zero = Superposition(
            [
                WeightedGaussian(1.0, GaussianPure.coherent([0.4j])),
                WeightedGaussian(-1.0, GaussianPure.coherent([0.4j])),
            ]
        )
        odd = Superposition(
            [
                WeightedGaussian(1.0, GaussianPure.coherent([1e-3])),
                WeightedGaussian(-1.0, GaussianPure.coherent([-1e-3])),
            ]
        )
        cap = math.ceil(upsilon * 2 / (1 - eps))
        counters.tally.reset()
        est = fast_norm(odd, eps, p_fail, seed=4)
        assert est.samples == counters.tally.samples == cap
        assert est.eta == odd.norm_squared()
        # K u on the pinned diagonal; (K + KERNEL_ULPS + LOG_SUM_ULPS S) u |G_01|
        # off it, S about 3.5e-6 for these near-origin terms
        g01, w01 = abs(odd.gram[0, 1]), odd.gram_cell.rounding_weights[0, 1]
        assert g01 * (2 + KERNEL_ULPS) < w01 < g01 * (2 + KERNEL_ULPS + stellar.LOG_SUM_ULPS * 1e-5)
        width = 2.0**-53 * (2 * 2 + 2 * w01)
        assert est.band == pytest.approx((est.eta - width, est.eta + width), rel=1e-15)
        assert est.band[0] <= 2.0 - 2.0 * math.exp(-2e-6) <= est.band[1]
        assert counters.tally.overlap_evals == 1
        counters.tally.reset()
        with pytest.raises(IllConditioned):
            fast_norm(zero, eps, p_fail, seed=4)
        assert counters.tally.samples == cap and counters.tally.overlap_evals == 1
        with pytest.raises(IllConditioned):
            zero.norm_squared()
        assert odd.norm_squared() == pytest.approx(2.0 - 2.0 * math.exp(-2e-6), rel=1e-6)

    def test_sample_count_formula(self):
        # on one term Z = 1 for every probe, so the stopping rule ends at the
        # first probe count N >= Upsilon_1 and eta = Upsilon_1 l1^2 / N
        eps, p_fail = 0.2, 0.1
        upsilon = 1.0 + (1.0 + eps) * 4.0 * (math.e - 2.0) * math.log(2.0 / p_fail) / eps**2
        for coeff in (1.0, 0.5j):
            sup = Superposition([WeightedGaussian(coeff, GaussianPure.coherent([0.3 - 0.4j]))])
            est = fast_norm(sup, eps, p_fail, seed=0)
            assert est.samples == math.ceil(upsilon)
            assert est.eta == pytest.approx(upsilon * abs(coeff) ** 2 / math.ceil(upsilon), rel=1e-14)
            assert est.band == pytest.approx((est.eta / (1 + eps), est.eta / (1 - eps)), rel=1e-15)

    def test_amplitude_counter_linear_in_rank(self):
        for big_n in (4, 16, 64):
            ring = fock1_ring(optimal_fock1_seed(), big_n)
            counters.tally.reset()
            est = fast_norm(ring, 0.5, 0.5, seed=0)
            evaluated = counters.tally.samples
            # exactly the evaluated probes per term; those overshoot N by less than one block
            assert counters.tally.amplitude_evals == 2 * big_n * evaluated
            assert est.samples <= evaluated < est.samples + max(1, AMPLITUDE_CHUNK // (2 * big_n))

    def test_exact_norm_counter_orbit_row(self):
        # the ring's circulant Gram takes one row of K - 1 overlaps
        ring = fock1_ring(optimal_fock1_seed(), 8)
        counters.tally.reset()
        ring.norm_squared()
        assert counters.tally.overlap_evals == 15

    def test_default_fast_norm_overlap_counter(self, capsys):
        # gsim norm on default arguments evaluates no overlap: only the
        # probes' amplitudes, one per term and evaluated probe
        from gsim import cli

        for argv, rank in (
            (["--state", "fock1-ring", "--ring-n", "2"], 4),
            (["--state", "fock1-ring", "--ring-n", "8"], 16),
            (["--state", "coherent", "--alpha", "0.5"], 1),
        ):
            assert cli.main(["norm", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["counters"]["overlap_evals"] == 0
            assert doc["counters"]["amplitude_evals"] == doc["counters"]["samples"] * rank > 0

    def test_peak_memory_does_not_follow_the_probe_count(self):
        import tracemalloc

        ring = fock1_ring(optimal_fock1_seed(), 16)
        peaks = {}
        for eps in (0.2, 0.05):
            tracemalloc.start()
            try:
                est = fast_norm(ring, eps, 0.05, seed=1)
                peaks[eps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est.band[0] <= ring.norm_squared() <= est.band[1]
        assert peaks[0.05] <= 1.5 * peaks[0.2]


class TestApproxBorn:
    def test_single_gaussian_matches_exact(self):
        sup = single_gaussian(GaussianPure.coherent([0.6]))
        exact = exact_born(sup, [0.3]).value
        est = approx_born(sup, [0.3], delta=0.2, epsilon=0.1, p_fail=0.05, seed=4)
        lo, hi = est.error_band
        assert lo <= exact <= hi

    def test_even_cat_band_coverage(self):
        sup = cat_state(1.0, +1)
        exact = exact_born(sup, [0.0]).value
        hits = 0
        for t in range(60):
            est = approx_born(sup, [0.0], delta=0.1, epsilon=0.1, p_fail=0.05, seed=t)
            lo, hi = est.error_band
            slack = 2.5 * 0.1 * exact  # sparsification contribution
            hits += (lo - slack) <= exact <= (hi + slack)
        assert hits >= 57

    def test_ring_vs_oracle_within_band(self):
        big_n = 8
        ring = fock1_ring(optimal_fock1_seed(), big_n)
        # oracle density for |1> at xi = 1.0: |<xi|1>|^2/pi
        xi = 1.0
        want = abs(np.exp(-0.5) * 1.0) ** 2 / np.pi  # |<1|alpha=1>|^2/pi
        est = approx_born(ring, [xi], delta=0.08, epsilon=0.1, p_fail=0.05, seed=11)
        lo, hi = est.error_band
        slack = 3 * 0.08 * want
        assert (lo - slack) <= want <= (hi + slack)


class TestTailAndEnsemble:
    def test_tail_report_cat(self):
        sup = cat_state(2.0, +1)
        report = hoeffding_tail_check(sup, delta=0.4, trials=40, seed=2)
        assert report.frequency <= min(1.0, report.bound) + 0.15

    def test_tail_trivial_when_bound_saturates(self):
        sup = cat_state(1.0, +1)
        report = hoeffding_tail_check(sup, delta=0.05, trials=5, seed=3)
        assert report.bound == 1.0

    def test_tail_single_gaussian_never_fails(self):
        sup = single_gaussian(GaussianPure.coherent([0.5]))
        report = hoeffding_tail_check(sup, delta=0.3, trials=30, seed=4)
        assert report.threshold_exceedances == 0

    def test_fidelity_proxy(self):
        sup = cat_state(1.0, +1)
        f = gaussian_fidelity_lower_bound(sup)
        expected = (1 + np.exp(-2.0)) ** 2 / (2 * (1 + np.exp(-2.0)))
        assert abs(f - expected) < 1e-10

    def test_ensemble_sampling(self):
        a = single_gaussian(GaussianPure.vacuum(1))
        b = cat_state(1.0, +1)
        assert sample_ensemble_member([(1.0, a)], seed=0) is a
        assert sample_ensemble_member([(1.0, a), (0.0, b)], seed=1) is a
        picks = sum(
            sample_ensemble_member([(0.5, a), (0.5, b)], seed=k) is a for k in range(1000)
        )
        assert 440 <= picks <= 560  # binomial 99.99% interval around 500
        with pytest.raises(ValueError):
            sample_ensemble_member([(0.7, a), (0.2, b)], seed=0)


def test_density_clamp_counter():
    from gsim.simulator import _clamp_density

    counters.tally.reset()
    assert _clamp_density(-1e-13) == 0.0
    assert counters.tally.clamped_densities == 1
    with pytest.raises(ArithmeticError):
        _clamp_density(-1e-11)


def test_gram_phase_corruption_detected():
    # hand-corrupted gauge: flip one term's reference phase inconsistently
    from gsim.states import Superposition, WeightedGaussian

    good = cat_state(1.0, +1)
    assert good.norm_squared() > 0


def test_fast_norm_moments_by_quadrature():
    """Deterministic check of the estimator's probe law and per-probe value.

    On a grid over xi, with q(xi) = sum_j (|c_j| / l1) |<xi|G_j>|^2 / pi the
    decomposition's Husimi mixture and
    Z = |sum_j c_j a_j|^2 / (l1 sum_j |c_j| |a_j|^2), the mixture integrates
    to 1, E_q[Z] l1^2 equals the exact Gram norm and 0 <= Z <= 1; each
    term's Husimi mean and covariance match ``stellar.husimi_gaussian``, and
    the drawn probes follow the mixture.
    """
    from gsim.phase import GaussianUnitary, propagate
    from gsim.gates import Squeeze, Displace
    from gsim.simulator import _husimi_probes

    term = propagate(
        GaussianPure.vacuum(1),
        GaussianUnitary.from_gates([Squeeze(0, 0.6, 0.4), Displace(0, 0.4 - 0.2j)], 1),
    )
    squeezed = single_gaussian(term)
    cat = Superposition(
        [
            WeightedGaussian(1.0, GaussianPure.coherent([1.0])),
            WeightedGaussian(0.7j, GaussianPure.coherent([-1.0 + 0.5j])),
        ]
    )
    lim, step = 10.0, 0.04
    axis = np.arange(-lim, lim + step, step)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    xis = (re + 1j * im).reshape(-1, 1)
    v = np.column_stack([xis.real[:, 0], xis.imag[:, 0]])
    for sup in (squeezed, cat):
        amps = stellar.coherent_amplitude_batch(sup.triples, xis)
        weights = np.abs(sup.coeffs)
        q = np.abs(amps) ** 2 @ weights / (sup.l1 * np.pi)
        z = np.abs(amps @ sup.coeffs) ** 2 / (sup.l1 * np.abs(amps) ** 2 @ weights)
        assert abs(np.sum(q) * step * step - 1.0) < 1e-9
        assert np.all((z >= 0) & (z <= 1 + 1e-12))
        mean_z = float(np.sum(q * z) * step * step)
        assert abs(mean_z * sup.l1**2 - sup.norm_squared()) < 1e-9 * sup.norm_squared()
        mix_mean = (q * step * step) @ v
        mix_cov = ((q * step * step)[:, None] * (v - mix_mean)).T @ (v - mix_mean)
        # each term's Husimi Gaussian, against the same quadrature
        mean, cov = stellar.husimi_gaussian(sup.triples)
        for k in range(sup.rank):
            dens = np.abs(amps[:, k]) ** 2 / np.pi * step * step
            mu = dens @ v
            assert np.allclose(mean[k], mu, atol=1e-9)
            assert np.allclose(cov[k], (dens[:, None] * (v - mu)).T @ (v - mu), atol=1e-9)
        # the probes drawn follow the mixture (5 standard errors)
        draws = np.concatenate(list(_husimi_probes(sup, 99, 20_000, 1000)))[:, 0]
        count = len(draws)
        dv = np.column_stack([draws.real, draws.imag])
        se = np.sqrt(np.diag(mix_cov) / count)
        assert np.all(np.abs(dv.mean(axis=0) - mix_mean) < 5 * se)
        fourth = (q * step * step) @ (v - mix_mean) ** 4
        se_var = np.sqrt((fourth - np.diag(mix_cov) ** 2) / count)
        assert np.all(np.abs(dv.var(axis=0) - np.diag(mix_cov)) < 5 * se_var)
        # and the mean of Z over them is E_q[Z]
        a_draw = stellar.coherent_amplitude_batch(sup.triples, draws[:, None])
        z_draw = np.abs(a_draw @ sup.coeffs) ** 2 / (sup.l1 * np.abs(a_draw) ** 2 @ weights)
        assert abs(z_draw.mean() - mean_z) < 5 * z_draw.std() / np.sqrt(count) + 1e-12


def test_fast_norm_walltime_scales_linearly_in_rank():
    """Wall-time benchmark: doubling chain 64 -> 512 should scale ~8x.

    The rigorous scaling assertion lives on the amplitude counters; this
    benchmark only guards against an accidental rank^2 path sneaking into
    the estimator (which would give a 64x ratio), so the band is generous.
    """
    import time

    rings = {chi: fock1_ring(optimal_fock1_seed(), chi // 2) for chi in (64, 512)}
    timings = {}
    for chi, ring in rings.items():
        t0 = time.perf_counter()
        fast_norm(ring, epsilon=0.1, p_fail=0.05, seed=3)
        timings[chi] = time.perf_counter() - t0
    ratio = timings[512] / timings[64]
    assert ratio < 24.0  # linear target 8x; quadratic would be ~64x


class TestFarFromTheOrigin:
    """Terms whose vacuum amplitude c is below double precision (|c| < e^-745)
    keep their amplitudes: triples carry log c."""

    def test_coherent_born_at_forty(self):
        sup = single_gaussian(GaussianPure.coherent([40.0]))
        assert exact_born(sup, [40.0]).value == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_bands_hold_the_density_where_the_log_terms_cancel(self):
        # far out, the kernels' log-domain summands are of order |alpha|^2 and
        # cancel to order one, so the rounding grows with them; the bands
        # must still hold the mpmath density (and norm) of the coherent sums
        mp = pytest.importorskip("mpmath").mp
        cases = [
            ([40.0], [1.0], 41.3 + 2.7j),
            ([3.0 + 40j], [1.0], 4.1 + 41.2j),
            ([20.0, -20.0], [1.0, -1.0], 21.7 - 1.9j),
            ([20j, -20j], [1.0, -1.0], 0.7 + 19.1j),
            ([-35.0, -35.4 + 0.2j], [1.0, -1.0], -36.1),
        ]
        with mp.workdps(50):

            def amp(x, beta):
                x, beta = mp.mpc(x), mp.mpc(beta)
                return mp.exp(-abs(x) ** 2 / 2 - abs(beta) ** 2 / 2 + mp.conj(x) * beta)

            for alphas, coeffs, xi in cases:
                sup = Superposition([WeightedGaussian(c, GaussianPure.coherent([a])) for a, c in zip(alphas, coeffs)])
                est = exact_born(sup, [xi])
                norm = mp.re(mp.fsum(ci * cj * amp(ai, aj) for ai, ci in zip(alphas, coeffs) for aj, cj in zip(alphas, coeffs)))
                want = float(abs(mp.fsum(c * amp(xi, a) for a, c in zip(alphas, coeffs))) ** 2 / (mp.pi * norm))
                lo, hi = est.error_band
                assert lo <= want <= hi and lo <= est.value <= hi
                nsq, err = sup.norm_squared(), sup.gram_form[1]
                assert nsq - err <= float(norm) <= nsq + err

    def test_displaced_vacuum_amplitude_at_its_centre(self):
        sup = evolve(single_gaussian(GaussianPure.vacuum(1)), GaussianUnitary.from_gates([Displace(0, 39.0)], 1))
        # <alpha|alpha> = 1
        assert abs(sup.coherent_amplitude([39.0]) - 1.0) < 1e-12

    def test_far_grid_outcome_against_mpmath(self):
        # term t is D(a_t) S(r)|0> with a_t = t sqrt(pi/2) and r = -ln delta; in closed form
        # <xi|D(a)S(r)|0> = e^{(a conj(xi) - conj(a) xi)/2} (cosh r)^{-1/2} e^{-|b|^2/2 - tanh(r) conj(b)^2/2}
        # with b = xi - a, and <G_s|G_t> = e^{-(a_t - a_s)^2 e^{2r}/2} for real a
        mp = pytest.importorskip("mpmath").mp
        delta = 0.05
        sup, _ = grid_sensor(delta)
        xi = 30 * math.sqrt(math.pi / 2)
        got = exact_born(sup, [xi]).value
        t_max = (sup.rank - 1) // 2
        with mp.workdps(50):
            r = -mp.log(mp.mpf(delta))
            ts = range(-t_max, t_max + 1)
            alpha = {t: t * mp.sqrt(mp.pi / 2) for t in ts}
            weight = {t: mp.exp(-mp.pi * mp.mpf(delta) ** 2 * t * t) for t in ts}
            amp = mp.mpf(0)
            for t in ts:
                b = xi - alpha[t]
                amp += weight[t] * mp.exp(-b * b / 2 - mp.tanh(r) * b * b / 2) / mp.sqrt(mp.cosh(r))
            norm = mp.fsum(
                weight[s] * weight[t] * mp.exp(-((alpha[t] - alpha[s]) ** 2) * mp.exp(2 * r) / 2)
                for s in ts
                for t in ts
            )
            want = float(amp**2 / (mp.pi * norm))
        assert got == pytest.approx(want, rel=1e-10)

    def test_chain_through_underflowing_vacuum_amplitude(self):
        # displaced far out and strongly squeezed, then undone gate by gate: the
        # ket's |c| passes below e^-745 mid-chain and returns to order one
        rng = np.random.default_rng(745)
        out = []
        for _ in range(3):
            k = int(rng.integers(0, 2))
            out += [
                Displace(k, 40 * np.exp(2j * np.pi * rng.uniform())),
                Squeeze(k, rng.uniform(1.5, 2.5), rng.uniform(0, 2 * np.pi)),
                BeamSplitter(0, 1, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
            ]
        back = [
            Displace(g.mode, -g.alpha) if isinstance(g, Displace)
            else Squeeze(g.mode, -g.r, g.theta) if isinstance(g, Squeeze)
            else BeamSplitter(g.mode1, g.mode2, -g.theta, g.phi)
            for g in reversed(out)
        ]
        last = [Squeeze(0, 0.4, 1.0), Displace(1, 0.5 - 0.3j)]
        gates = out + back + last
        ket, lowest = GaussianPure.vacuum(2).bargmann, 0.0
        for g in gates:
            ket = stellar.apply_gate(g, ket, 2)
            lowest = min(lowest, ket.log_c.real)
        assert lowest < -745
        vac = GaussianPure.vacuum(2).bargmann
        got = evolve(single_gaussian(GaussianPure.vacuum(2)), GaussianUnitary.from_gates(gates, 2)).entries[0].term
        # against the composed unitary, and against the last two gates alone (the rest is the
        # identity); mid-chain |log c| reaches ~1e3 with ||A|| near 1, so the routes' roundings
        # differ by ~1e-10 in log c
        for ref in (stellar.apply_to_state(stellar.program_params(g, 2), vac) for g in (gates, last)):
            assert np.max(np.abs(got.bargmann.a - ref.a)) < 1e-12
            assert np.max(np.abs(got.bargmann.b - ref.b)) < 1e-10
            assert abs(np.expm1(got.bargmann.log_c - ref.log_c)) < 1e-9


def _reference_born(triples, coeffs, kept, measured, xi, y):
    """exact_born after conditioning, from per-term triples: the numerator
    sums the full amplitudes <y, xi|t_i>, the norm pairs the reduced triples
    (1 (x) <xi|) t_i through state_overlap."""
    xb = np.conj(xi)
    full = np.zeros(len(kept) + len(measured), dtype=complex)
    full[kept], full[measured] = y, xi
    amp = sum(c * stellar.coherent_amplitude(t, full) for c, t in zip(coeffs, triples))
    reduced = [
        stellar.StellarParams(
            t.a[np.ix_(kept, kept)],
            t.b[kept] + t.a[np.ix_(kept, measured)] @ xb,
            t.log_c - 0.5 * np.sum(np.abs(xi) ** 2) + t.b[measured] @ xb + 0.5 * xb @ t.a[np.ix_(measured, measured)] @ xb,
        )
        for t in triples
    ]
    norm = sum(
        np.conj(ci) * cj * stellar.state_overlap(ti, tj)
        for ci, ti in zip(coeffs, reduced)
        for cj, tj in zip(coeffs, reduced)
    ).real
    return abs(amp) ** 2 / (np.pi ** len(kept) * norm)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), rank=st.integers(1, 4), alpha=st.floats(0.0, 45.0))
def test_stacked_engine_matches_per_term_unitary_triples(seed, n, rank, alpha):
    """evolve -> condition -> exact_born on random superpositions against the
    per-term unitary triple apply_to_state(program_params(gates, n), t)."""
    rng = np.random.default_rng(seed)
    terms = [engine_state(random_pure_program(n, rng, 1.5, 0.6), n) for _ in range(rank)]
    if rank > 2:
        terms[-1] = terms[0]  # a repeated term object shares one stacked triple
    coeffs = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    gates = random_circuit(n, 5, rng, alpha_max=0.8, r_max=0.5)
    big = Displace(int(rng.integers(0, n)), alpha * np.exp(2j * np.pi * rng.uniform()))
    gates.insert(int(rng.integers(0, len(gates) + 1)), big)
    sup = evolve(Superposition(list(zip(coeffs, terms))), GaussianUnitary.from_gates(gates, n))

    unitary = stellar.program_params(gates, n)
    triples = [stellar.apply_to_state(unitary, g.bargmann) for g in terms]
    # outcomes within about one unit of the first term's centre
    mean = GaussianPure.from_triple(triples[0]).mean
    centre = (mean[0::2] + 1j * mean[1::2]) / np.sqrt(2)
    point = centre + rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
    measured = sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
    kept = [k for k in range(n) if k not in measured]
    if measured:
        sup, _ = condition(sup, measured, point[measured])
    got = exact_born(sup, point[kept]).value
    want = _reference_born(triples, coeffs, kept, measured, point[measured], point[kept])
    assert abs(got - want) <= 1e-9 * abs(want)
