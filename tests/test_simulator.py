import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsim import cli, counters, fock, stellar
from gsim.exceptions import IllConditioned
from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze, beamsplitter_unitary, program_symplectic
from gsim.gaussian import (
    GaussianMixed,
    GaussianPure,
    GeneralDyne,
    condition_on_generaldyne,
    generaldyne_density,
    tensor,
)
from gsim.rng import stream
from gsim.simulator import (
    approx_born,
    condition,
    cross_overlap,
    evolve,
    exact_born,
    fast_norm,
    heterodyne_density,
    probe_norm,
    sample_count,
    sparsify,
)
from gsim.states import (
    AMPLITUDE_CHUNK,
    GramCell,
    Superposition,
    WeightedGaussian,
    cat_state,
    fock1_ring,
    gkp_state,
    grid_sensor,
    measures,
    optimal_fock1_seed,
)
from gsim.stellar import GaussianUnitary

from conftest import engine_state, random_circuit, random_pure_program, single_gaussian


def with_vacuum(sup):
    """A one-mode superposition (x) the vacuum on a second mode."""
    return Superposition(
        [WeightedGaussian(e.coeff, tensor(e.term, GaussianPure.vacuum(1))) for e in sup.entries],
        l1=sup.l1,
    )


def cat_with_vacuum(alpha=1.0, parity=+1):
    return with_vacuum(cat_state(alpha, parity))


def library_with_programs(kind):
    """An odd cat, an 8-term fock1 ring or a three-term GKP codeword, and the
    gate program that makes each of its terms from the vacuum."""
    if kind == "cat":
        return cat_state(1.0, -1), [[Displace(0, 1.0)], [Displace(0, -1.0)]]
    if kind == "ring":
        seed = [Squeeze(0, math.log(math.sqrt(3))), Displace(0, math.sqrt(2 / 3))]
        return fock1_ring(optimal_fock1_seed(), 8), [seed + [PhaseShift(0, np.pi * m / 8)] for m in range(16)]
    step = 2 * math.sqrt(math.pi)  # d = 2, mu = 0: term s sits at alpha_d d s
    return gkp_state(2, 0, 0.9, 0.7, 1)[0], [[Squeeze(0, -math.log(0.7)), Displace(0, step * s)] for s in (-1, 0, 1)]


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
        out = evolve(sup, GaussianUnitary((), 1))
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
        ring.norm_squared()
        op = GaussianUnitary.from_gates([Squeeze(0, 0.3, 0.4), Displace(0, 0.5 - 0.2j)], 1)
        counters.tally.reset()
        out = evolve(evolve(ring, op), op)
        out.norm_squared()
        exact_born(out, [0.3 + 0.1j])
        measures(out)
        assert counters.tally.overlap_evals == 0
        assert out.gram_cell is ring.gram_cell

    def test_evolve_computes_no_gram(self):
        # an evolved state takes its own orbit row, which never fills the
        # parent's cell: every sibling costs the same K - 1 overlaps
        ring = fock1_ring(optimal_fock1_seed(), 8)
        for phi in (0.3, 0.7):
            counters.tally.reset()
            out = evolve(ring, GaussianUnitary.from_gates([Squeeze(0, 0.3, phi)], 1))
            assert counters.tally.overlap_evals == 0 and "pairs" not in vars(out.gram_cell)
            assert out.gram_cell.orbit
            out.norm_squared()
            assert counters.tally.overlap_evals == 15 and "pairs" not in vars(ring.gram_cell)
            i, j = np.triu_indices(out.rank, 1)  # the Toeplitz Gram that the row stands for
            assert np.max(np.abs(out.gram_cell.pairs[2][j - i - 1] - out.gram[i, j])) <= 1e-14

    def test_conditioned_and_sparsified_states_take_a_general_gram(self):
        ring = cli._initial_state(cli.read_initial({"kind": "fock1_ring", "N": 4}), 2)
        ring.norm_squared()
        mixed = evolve(ring, GaussianUnitary.from_gates([BeamSplitter(0, 1, 0.6)], 2))
        counters.tally.reset()
        out, _ = condition(mixed, [1], [0.4 - 0.2j])
        assert not out.gram_cell.orbit and counters.tally.overlap_evals == 0
        out.norm_squared()
        assert counters.tally.overlap_evals == out.rank * (out.rank - 1) // 2 == 28
        sparse = sparsify(ring, 0.5, 1)
        counters.tally.reset()
        sparse.norm_squared()
        assert not sparse.gram_cell.orbit
        assert counters.tally.overlap_evals == sparse.rank * (sparse.rank - 1) // 2


def test_one_mode_exact_born_calls_no_lapack(monkeypatch):
    """At one mode, evolve, condition and exact_born (normalisation checks,
    orbit row and general Gram) run on closed-form 1 x 1 kernels."""
    ring = fock1_ring(optimal_fock1_seed(), 32)
    cat = cli._with_vacuum(cat_state(1.3 - 0.2j, -1), 2)
    cat = evolve(cat, GaussianUnitary.from_gates([BeamSplitter(0, 1, 0.6, 0.2), Squeeze(1, 0.3, 0.4)], 2))

    def banned(*args, **kwargs):
        raise AssertionError("LAPACK called on a one-mode path")

    for name in ("svd", "eigvals", "inv", "slogdet", "solve"):
        monkeypatch.setattr(np.linalg, name, banned)
    op = GaussianUnitary.from_gates([Displace(0, 0.2 - 0.1j), Squeeze(0, 0.3, 0.4), PhaseShift(0, 0.7)], 1)
    exact_born(evolve(ring, op), [0.3 + 0.2j])
    conditioned, _ = condition(cat, [1], [0.4 - 0.2j])
    assert conditioned.n == 1 and not conditioned.gram_cell.orbit
    exact_born(conditioned, [0.1 + 0.5j])
    with pytest.raises(AssertionError, match="LAPACK"):
        np.linalg.inv(np.eye(2))


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
    shared = sup.gram_cell.pairs  # evaluated, so every evolved state shares it
    for _ in range(chains):
        sup = evolve(sup, GaussianUnitary.from_gates(random_circuit(n, 4, rng, alpha_max=0.8, r_max=0.5), n))
    i, j, g, _ = sup.gram_cell.pairs
    assert g is shared[2]
    assert np.max(np.abs(g - sup.gram[i, j])) <= 1e-13  # the dense reference is of sup's own triples


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

    def test_a_nan_weight_is_a_numerical_failure(self, monkeypatch):
        # a weight that is not a number is no outcome that annihilates every
        # term: it raises an ArithmeticError (exit 3), not a ValueError (exit 2)
        sup = cat_with_vacuum(0.9)
        monkeypatch.setattr(stellar, "log_magnitude", lambda a, b: np.full(a.shape[0], np.nan))
        with pytest.raises(FloatingPointError, match="not a number"):
            condition(sup, [1], [0.7 - 0.2j])

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

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["cat", "ring", "gkp"]))
    def test_two_mode_circuits_condition_like_the_oracle(self, seed, kind):
        # evolve -> condition -> exact_born against the Fock oracle; the oracle
        # sums each term's program on the vacuum with the engine's coefficients,
        # and the conditioned state's norm is a general Gram
        rng = np.random.default_rng(seed)
        sup, programs = library_with_programs(kind)
        gates = random_circuit(2, 8, rng)
        moved = evolve(with_vacuum(sup), GaussianUnitary.from_gates(gates, 2))
        cut = 100
        vec = sum(c * fock.oracle_state(p, 1, cutoff=cut).amplitudes for c, p in zip(sup.coeffs, programs))
        fv = fock.FockVector(np.einsum("i,j->ij", vec, fock.coherent_column(0.0, cut)), cut)
        for g in gates:
            fv = fock.apply_gate(fv, g)
        assert fv.edge_mass() < fock.LEAK_TOL
        xi_b, xi = rng.normal(0, 0.8, 2) + 1j * rng.normal(0, 0.8, 2)
        cond, log_scale = condition(moved, [1], [xi_b])
        fv_cond = fock.condition_on_coherent(fv, 1, xi_b)
        assert abs(cond.norm_squared() * np.exp(log_scale) - fv_cond.norm_squared()) < 1e-8
        for x in (0.0, xi):
            assert abs(exact_born(cond, [x]).value - fock.oracle_born(fv_cond, [x])) < 1e-8

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
        p_engine = heterodyne_density(sup2, [1], [xi]).value
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
        nsq = sup.gram_form[0]
        amp = abs(complex(c @ stellar.coherent_amplitude(sup.triples, [0.3 + 0.2j])))
        assert first.value == amp**2 / (np.pi * nsq)
        assert first.error_band[0] <= first.value <= first.error_band[1]
        # the orbit's lag form is the dense c^+ G c (see TestOrbitForm)
        assert abs(nsq - float(np.real(np.conj(c) @ sup.gram @ c))) <= 1e-13 * nsq
        with pytest.raises(ValueError):
            sup.coeffs[0] = 0.0  # read-only, so the memo cannot go stale


class TestAmplitudeTableCache:
    @staticmethod
    def _count_tables(monkeypatch):
        built = []
        table = stellar.AmplitudeTable

        class Counted(table):
            __slots__ = ()

            def __init__(self, t):
                built.append(t)
                super().__init__(t)

        monkeypatch.setattr(stellar, "AmplitudeTable", Counted)
        return built

    def test_a_second_exact_born_reuses_the_table(self, monkeypatch):
        built = self._count_tables(monkeypatch)
        sup = fock1_ring(optimal_fock1_seed(), 16)
        counters.tally.reset()
        first = exact_born(sup, [0.3 + 0.2j])
        table = sup.amplitude_table
        second = exact_born(sup, [-0.1 + 0.4j])
        assert len(built) == 1 and sup.amplitude_table is table
        assert counters.tally.amplitude_evals == 2 * sup.rank
        assert exact_born(sup, [0.3 + 0.2j]) == first and second != first
        amp = sup.coherent_amplitude([0.3 + 0.2j])
        assert len(built) == 1 and abs(amp) ** 2 / (np.pi * sup.norm_squared()) == first.value

    def test_derived_states_build_their_own_tables(self, monkeypatch):
        built = self._count_tables(monkeypatch)
        sup = cat_with_vacuum(1.1)
        exact_born(sup, [0.2, -0.1j])
        parent = sup.amplitude_table
        op = GaussianUnitary.from_gates([Squeeze(0, 0.4), BeamSplitter(0, 1, 0.6)], 2)
        children = [evolve(sup, op), condition(sup, [1], [0.3 + 0.1j])[0], sparsify(sup, 0.2, 5)]
        for child in children:
            assert "amplitude_table" not in vars(child)
            outcome = [0.2] * child.n
            exact_born(child, outcome)
            assert child.amplitude_table is not parent and child.amplitude_table.w.shape[0] == child.rank
            assert np.array_equal(child.amplitude_table.w, stellar.AmplitudeTable(child.triples).w)
        # the parent's table, and per child its own and the one built to check it
        assert sup.amplitude_table is parent and len(built) == 1 + 2 * len(children)
        # a fresh parent is not filled by its children
        fresh = cat_with_vacuum(1.1)
        for child in (evolve(fresh, op), condition(fresh, [1], [0.3 + 0.1j])[0], sparsify(fresh, 0.2, 5)):
            exact_born(child, [0.2] * child.n)
            fast_norm(child, 0.3, 0.3, seed=2)
        assert "amplitude_table" not in vars(fresh)

    def test_a_warm_state_gives_the_values_of_a_fresh_copy(self):
        def fresh():
            lib = fock1_ring(optimal_fock1_seed(), 8)
            return Superposition.from_stack(lib.coeffs, lib.triples)

        warm = fresh()
        outcomes = [[0.3 + 0.2j], [-1.1j], [0.05]]
        for xi in outcomes:
            exact_born(warm, xi)
        probe_norm(warm, 0.2, 0.1, seed=4)
        approx_born(warm, [0.4], 0.2, 0.2, 0.1, seed=6)
        for xi in outcomes:
            assert exact_born(warm, xi) == exact_born(fresh(), xi)
            assert warm.coherent_amplitude(xi) == fresh().coherent_amplitude(xi)
        assert probe_norm(warm, 0.2, 0.1, seed=4) == probe_norm(fresh(), 0.2, 0.1, seed=4)
        # the router prices the Gram that the warm state holds at no pair;
        # the fresh copy's 120 pairs cost more than its 260 x 16 fewest probes
        est = fast_norm(warm, 0.2, 0.1, seed=4)
        assert (est.eta, est.samples) == (fresh().norm_squared(), 0)
        assert fast_norm(fresh(), 0.2, 0.1, seed=4) == probe_norm(fresh(), 0.2, 0.1, seed=4)
        assert approx_born(warm, [0.4], 0.2, 0.2, 0.1, seed=6) == approx_born(fresh(), [0.4], 0.2, 0.2, 0.1, seed=6)


class TestSparsify:
    def test_plan_arithmetic(self):
        sup = cat_state(1.0, +1)
        assert sample_count(sup.l1, 0.1) == 177

    def test_single_gaussian_exact(self):
        sup = single_gaussian(GaussianPure.coherent([0.4]))
        om = sparsify(sup, 0.3, 1)
        assert om.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert abs(cross_overlap(sup, om) - 1.0) < 1e-12

    def test_expected_distance_bound(self):
        # mean ||psi - Omega||^2 over 200 seeded runs <= l1^2/k + 3 SE
        sup = cat_state(1.0, +1)
        plan_delta = 0.1
        k = sample_count(sup.l1, plan_delta)
        nsq = sup.norm_squared()
        dists = []
        for t in range(200):
            om = sparsify(sup, plan_delta, 1000 + t)
            d2 = nsq + om.norm_squared() - 2 * cross_overlap(sup, om).real
            dists.append(d2)
        mean = np.mean(dists)
        se = np.std(dists) / np.sqrt(len(dists))
        assert mean <= sup.l1**2 / k + 3 * se
        assert mean <= plan_delta**2 + 3 * se

    def test_unbiasedness_and_norm_mean(self):
        sup = cat_state(1.0, +1)
        k = 40
        delta = sup.l1 / math.sqrt(k - 0.5)  # ceil((l1 / delta)^2) = k
        assert sample_count(sup.l1, delta) == k
        overlaps, norms = [], []
        for t in range(500):
            om = sparsify(sup, delta, 5000 + t)
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
        k = sample_count(sup.l1, 0.2)
        om = sparsify(sup, 0.2, 11)
        draws = np.repeat(np.arange(sup.rank), stream(11, 0).multinomial(k, np.abs(sup.coeffs) / sup.l1))
        assert om.rank == len(np.unique(draws)) < k
        weights = sup.l1 / k * np.exp(1j * np.angle(sup.coeffs[draws]))
        for xi in ([0.3 - 0.2j], [1.1 + 0.4j]):
            want = weights @ stellar.coherent_amplitude(sup.triples, xi)[draws]
            assert abs(om.coherent_amplitude(xi) - want) <= 1e-12 * abs(want)
        want = float(np.real(np.conj(weights) @ sup.gram[np.ix_(draws, draws)] @ weights))
        assert abs(om.norm_squared() - want) <= 1e-12 * want

    def test_norm_costs_distinct_pairs_only(self):
        sup, _ = grid_sensor(0.3)
        counters.tally.reset()
        om = sparsify(sup, 0.1, 2)
        assert counters.tally.samples == sample_count(sup.l1, 0.1) > om.rank
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


def record_probe_draws(monkeypatch) -> list:
    """Wrap the fast norm's probe source: the returned list collects every
    block of probes it draws, in order."""
    import gsim.simulator as simulator_module

    husimi_probes, drawn = simulator_module._husimi_probes, []

    def recording(*args):
        draw = husimi_probes(*args)

        def recorded(rows):
            xis = draw(rows)
            assert xis.shape[0] == rows
            drawn.append(np.array(xis))
            return xis

        return recorded

    monkeypatch.setattr(simulator_module, "_husimi_probes", recording)
    return drawn


def replay_states():
    """The states whose seeded fast-norm and approx-Born outputs are pinned."""
    return {
        "ring16": lambda: fock1_ring(optimal_fock1_seed(), 8),
        "ring32": lambda: fock1_ring(optimal_fock1_seed(), 16),
        "grid0.3": lambda: grid_sensor(0.3)[0],
        "cat2": lambda: cat_state(2.0, +1),
        "oddcat0.5": lambda: cat_state(0.5, -1),
        "gkp": lambda: gkp_state(2, 0, 0.3, 0.3, 5)[0],
        "two-mode": lambda: evolve(cat_with_vacuum(1.2), GaussianUnitary.from_gates(
            [Squeeze(0, 0.6, 0.4), BeamSplitter(0, 1, 0.7, 0.3), Displace(1, 0.2 - 0.5j)], 2)),
    }


class TestFastNorm:
    def test_vacuum_band_coverage(self):
        sup = single_gaussian(GaussianPure.vacuum(1))
        hits = 0
        for t in range(100):
            est = probe_norm(sup, 0.1, 0.05, seed=t)
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
            est = probe_norm(sup, 0.1, 0.05, seed=t)
            lo, hi = est.band
            hits += lo <= truth <= hi
        assert hits >= 95

    def test_two_mode_band_coverage(self):
        sup = single_gaussian(tensor(GaussianPure.vacuum(1), GaussianPure.coherent([0.5 + 0.2j])))
        hits = 0
        for t in range(100):
            est = probe_norm(sup, 0.1, 0.05, seed=t)
            lo, hi = est.band
            hits += lo <= 1.0 <= hi
        assert hits >= 95

    def test_three_mode_entangled_band(self):
        # six normals and a term pick per probe, so a probe's row does not
        # start on a Philox block; the band holds at confidence 1 - p_fail on
        # any mode count
        sup = cat_three_modes()
        est = probe_norm(sup, 0.3, 0.003, seed=0)
        assert est.band[0] <= sup.norm_squared() <= est.band[1]

    def test_three_mode_coverage_at_nominal_level(self):
        sup = cat_three_modes()
        truth = sup.norm_squared()
        hits = 0
        for t in range(100):
            est = probe_norm(sup, 0.1, 0.05, seed=t)
            hits += est.band[0] <= truth <= est.band[1]
        assert hits >= 95

    def test_probe_row_depends_only_on_seed_and_index(self, monkeypatch):
        # a longer run (smaller epsilon) extends the probes of a shorter one
        sup = cat_with_vacuum(0.8)
        drawn, probes, runs = record_probe_draws(monkeypatch), [], []
        for eps, seed in ((0.5, 17), (0.3, 17), (0.5, 18)):
            runs.append(probe_norm(sup, eps, 0.5, seed=seed))
            probes.append(np.concatenate(drawn))
            drawn.clear()
        short, long, other = probes
        assert short.shape[1] == 2 and runs[1].samples > runs[0].samples
        assert np.array_equal(long[: runs[0].samples], short[: runs[0].samples])
        assert not np.any(other[: runs[0].samples] == short[: runs[0].samples])

    @pytest.mark.parametrize("name", ["ring32", "grid0.3", "two-mode"])
    def test_probe_values_match_the_complex_amplitudes(self, name):
        # Z of each probe of the first blocks against |sum c a|^2 / (l1 sum |c| |a|^2)
        # from the complex amplitudes of stellar.coherent_amplitude_batch, to 1e-13
        # of Z without cancellation, (sum |c a|)^2 / (l1 sum |c| |a|^2) <= 1: where
        # the terms cancel, both sides round by about u times that (at most 1.7e-15
        # of it over 200 seeds here)
        from gsim.simulator import _husimi_probes

        sup = replay_states()[name]()
        values, coeffs = stellar.ProbeValues(sup.amplitude_table, sup.coeffs, sup.l1), sup.coeffs
        rows, draw = max(1, AMPLITUDE_CHUNK // sup.rank), _husimi_probes(sup, 11)
        for xis in (draw(rows) for _ in range(3)):
            amps = stellar.coherent_amplitude_batch(sup.triples, xis)
            den = sup.l1 * (np.abs(amps) ** 2 @ np.abs(coeffs))
            want, scale = np.abs(amps @ coeffs) ** 2 / den, (np.abs(amps) @ np.abs(coeffs)) ** 2 / den
            assert np.all(np.abs(values.block(xis) - want) <= 1e-13 * scale)

    def test_far_cat_keeps_its_probes_in_range(self):
        # probes near +-40 make the log-domain summands of order 1600: the
        # amplitudes are formed with |xi|^2/2 inside the product, so nothing overflows
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = probe_norm(cat_state(40.0), 0.1, 0.05, seed=3)
        assert (est.eta, est.samples) == (0.9998699527652295, 2334)

    def test_result_does_not_depend_on_the_block_size(self, monkeypatch):
        # blocks of one row, of a prime number of amplitudes and without a
        # bound; the odd cat reaches its cap and returns the exact norm
        import gsim.states as states_module

        sups = (fock1_ring(optimal_fock1_seed(), 8), grid_sensor(0.3)[0], cat_with_vacuum(1.0), cat_state(0.5, -1))
        wants = [probe_norm(sup, 0.1, 0.05, seed=3) for sup in sups]
        assert wants[-1].eta == sups[-1].norm_squared()
        drawn = record_probe_draws(monkeypatch)
        for chunk in (1, 1009, 1 << 40):
            monkeypatch.setattr(states_module, "AMPLITUDE_CHUNK", chunk)
            for sup, want in zip(sups, wants):
                drawn.clear()
                got = probe_norm(sup, 0.1, 0.05, seed=3)
                assert (got.eta, got.samples, got.band) == (want.eta, want.samples, want.band)
                assert max(len(xis) for xis in drawn) <= max(1, chunk // sup.rank)

    def test_probes_are_consecutive_rows_of_one_stream(self):
        # probe i is mean + L box_muller(u_i) with u_i row i of the 2n + 1
        # uniforms per row read in order from stream (seed, 0), across draws of any size
        from gsim.phase import propagate
        from gsim.rng import box_muller
        from gsim.simulator import _husimi_probes

        gates = [Squeeze(0, 0.5, 0.3), BeamSplitter(0, 1, 0.7, 0.2), Displace(1, 0.3 - 0.4j)]
        sup = single_gaussian(propagate(GaussianPure.vacuum(2), GaussianUnitary.from_gates(gates, 2)))
        seed, n, pieces = 41, 2, (1, 100, 4096, 36)
        draw = _husimi_probes(sup, seed)
        got, count = np.concatenate([draw(rows) for rows in pieces]), sum(pieces)
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
        est = probe_norm(odd, eps, p_fail, seed=4)
        assert est.samples == counters.tally.samples == cap
        assert est.eta == odd.norm_squared()
        # K u on the pinned diagonal; (K + KERNEL_ULPS + LOG_SUM_ULPS S) u |G_01|
        # off it, S about 3.5e-6 for these near-origin terms
        u = stellar.UNIT_ROUNDOFF
        _, _, (g01,), (w01,) = odd.gram_cell.pairs
        g01 = abs(g01)
        assert u * g01 * (2 + stellar.KERNEL_ULPS) < w01 < u * g01 * (2 + stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * 1e-5)
        width = u * 2 * 2 + 2 * w01
        assert est.band == pytest.approx((est.eta - width, est.eta + width), rel=1e-15)
        assert est.band[0] <= 2.0 - 2.0 * math.exp(-2e-6) <= est.band[1]
        assert counters.tally.overlap_evals == 1
        counters.tally.reset()
        with pytest.raises(IllConditioned):
            probe_norm(zero, eps, p_fail, seed=4)
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
            est = probe_norm(sup, eps, p_fail, seed=0)
            assert est.samples == math.ceil(upsilon)
            assert est.eta == pytest.approx(upsilon * abs(coeff) ** 2 / math.ceil(upsilon), rel=1e-14)
            assert est.band == pytest.approx((est.eta / (1 + eps), est.eta / (1 - eps)), rel=1e-15)

    def test_amplitude_counter_linear_in_rank(self, monkeypatch):
        drawn = record_probe_draws(monkeypatch)
        for big_n in (4, 16, 64):
            ring = fock1_ring(optimal_fock1_seed(), big_n)
            counters.tally.reset()
            drawn.clear()
            est = probe_norm(ring, 0.5, 0.5, seed=0)
            evaluated = counters.tally.samples
            # exactly the evaluated probes per term; N lies in the last block,
            # so they overshoot it by less than that block's rows
            assert counters.tally.amplitude_evals == 2 * big_n * evaluated
            assert est.samples <= evaluated < est.samples + len(drawn[-1])

    @pytest.mark.parametrize("name", ["ring16", "ring32", "grid0.3", "oddcat0.5", "two-mode"])
    def test_draws_only_the_probes_it_evaluates(self, name, monkeypatch):
        # every probe drawn is evaluated, on the stopping route and on the cap route
        drawn = record_probe_draws(monkeypatch)
        sup = replay_states()[name]()
        for seed in (3, 17):
            counters.tally.reset()
            drawn.clear()
            est = probe_norm(sup, 0.1, 0.05, seed=seed)
            assert sum(len(xis) for xis in drawn) == counters.tally.samples
            assert counters.tally.amplitude_evals == sup.rank * counters.tally.samples
            assert est.samples <= counters.tally.samples

    def test_exact_norm_counter_orbit_row(self):
        # the ring's circulant Gram takes one row of K - 1 overlaps
        ring = fock1_ring(optimal_fock1_seed(), 8)
        counters.tally.reset()
        ring.norm_squared()
        assert counters.tally.overlap_evals == 15

    def test_default_fast_norm_overlap_counter(self, capsys, tmp_path):
        # gsim norm on default arguments takes the route that counted work
        # picks: a library orbit's K - 1 overlaps (none at rank 1) cost less
        # than its 1167 K fewest probe amplitudes; a conditioned ring of rank
        # 128, a general cell of 8128 pairs, takes probes and no overlap
        from gsim import cli

        for argv, overlaps in (
            (["--state", "fock1-ring", "--ring-n", "2"], 3),
            (["--state", "fock1-ring", "--ring-n", "8"], 15),
            (["--state", "coherent", "--alpha", "0.5"], 0),
        ):
            assert cli.main(["norm", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["counters"] == {"amplitude_evals": 0, "overlap_evals": overlaps, "samples": 0}
        program = tmp_path / "conditioned.json"
        program.write_text(json.dumps({
            "schema_version": 1,
            "modes": 2,
            "initial": {"kind": "fock1_ring", "N": 64},
            "ops": [
                {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
                {"gate": "condition", "modes": [1], "outcome": [[0.4, -0.2]]},
            ],
            "task": {"name": "norm"},
        }))
        assert cli.main(["run", str(program)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["overlap_evals"] == 0
        assert doc["counters"]["amplitude_evals"] == doc["counters"]["samples"] * 128 > 0

    def test_peak_memory_does_not_follow_the_probe_count(self):
        import tracemalloc

        # AMPLITUDE_CHUNK // rank rows cap every block of both runs, and the
        # second takes about six times the probes of the first
        ring = fock1_ring(optimal_fock1_seed(), 16)
        peaks = {}
        for eps in (0.05, 0.02):
            tracemalloc.start()
            try:
                est = probe_norm(ring, eps, 0.05, seed=1)
                peaks[eps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est.band[0] <= ring.norm_squared() <= est.band[1]
        assert peaks[0.02] <= 1.5 * peaks[0.05]


def _ring_cell(modes, big_n, orbit, circuit_seed):
    """A fock1 ring of 2 big_n terms padded with vacuum to ``modes`` modes and
    run through a random circuit, on a fresh Gram cell: an orbit cell, as the
    library gives it, or a general one, as a rebuilt or conditioned state has."""
    ring = fock1_ring(optimal_fock1_seed(), big_n)
    t = stellar.tensor(ring.triples, stellar.vacuum(modes - 1)) if modes > 1 else ring.triples
    sup = Superposition.from_stack(ring.coeffs, t, GramCell(t, orbit=True) if orbit else None)
    if modes > 1:
        gates = random_circuit(modes, 4, np.random.default_rng(circuit_seed), alpha_max=0.5, r_max=0.3)
        sup = evolve(sup, GaussianUnitary.from_gates(gates, modes))
    return sup


def _counted(fn, *args, **kw):
    counters.tally.reset()
    return fn(*args, **kw), counters.tally.snapshot()


class TestNormRouter:
    @settings(max_examples=80, deadline=None)
    @given(
        modes=st.integers(1, 3),
        big_n=st.integers(2, 40),
        orbit=st.booleans(),
        epsilon=st.sampled_from([0.1, 0.3, 0.6]),
        p_fail=st.sampled_from([0.05, 0.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_the_route_is_the_cheaper_in_counted_work(self, modes, big_n, orbit, epsilon, p_fail, seed):
        sup = _ring_cell(modes, big_n, orbit, seed)
        k = sup.rank
        pairs = k - 1 if orbit else k * (k - 1) // 2
        price = 42 if modes == 1 else 210
        upsilon = 1.0 + (1.0 + epsilon) * 4.0 * (math.e - 2.0) * math.log(2.0 / p_fail) / epsilon**2
        est, count = _counted(fast_norm, sup, epsilon, p_fail, seed=seed)
        if pairs * price < math.ceil(upsilon) * k:
            nsq, err = sup.norm_squared(), sup.gram_form[1]
            assert (est.eta, est.samples, est.band) == (nsq, 0, (nsq - err, nsq + err))
            assert count == {"amplitude_evals": 0, "overlap_evals": pairs, "samples": 0}
        else:
            assert est == probe_norm(_ring_cell(modes, big_n, orbit, seed), epsilon, p_fail, seed=seed)
            assert est.samples > 0 and count["overlap_evals"] == 0
        # a state that carries its Gram prices it at no pair
        sup.norm_squared()
        warm = evolve(sup, GaussianUnitary.from_gates([PhaseShift(0, 0.3)], modes))
        est, count = _counted(fast_norm, warm, epsilon, p_fail, seed=seed)
        assert (est.eta, est.samples) == (warm.norm_squared(), 0)
        assert count == {"amplitude_evals": 0, "overlap_evals": 0, "samples": 0}

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_an_orbit_takes_its_row_where_a_general_cell_takes_probes(self, modes):
        # rank 160: 159 pairs of an orbit against 12720 of a general cell, and
        # 1167 x 160 fewest probe amplitudes at the CLI defaults
        orbit, general = (_ring_cell(modes, 80, kind, 5) for kind in (True, False))
        est, count = _counted(fast_norm, orbit, 0.1, 0.05, seed=1)
        assert est.samples == 0 and count["overlap_evals"] == 159
        est, count = _counted(fast_norm, general, 0.1, 0.05, seed=1)
        assert est.samples > 0 and count["overlap_evals"] == 0
        # once the general cell holds its Gram, it costs no pair
        general.norm_squared()
        est, count = _counted(fast_norm, general, 0.1, 0.05, seed=1)
        assert (est.eta, est.samples, count["overlap_evals"]) == (general.norm_squared(), 0, 0)

    def test_the_one_mode_general_crossover_lies_at_rank_56(self):
        # 42 K (K - 1) / 2 < 1167 K up to K = 56
        for big_n, gram in ((28, True), (29, False)):
            est = fast_norm(_ring_cell(1, big_n, False, 0), 0.1, 0.05, seed=2)
            assert (est.samples == 0) == gram


# (eta, samples, band) of probe_norm and (value, error_band) of approx_born at
# the CLI defaults (epsilon 0.1, p_fail 0.05, delta 0.1) on `replay_states`,
# at the outcome (0.3 + 0.2i, -0.1 + 0.4i) cut to the mode count.  The probe
# estimates are those an earlier fast norm with fixed-size probe blocks gave:
# the block sizes may move only the work counters.  approx_born normalises
# through `fast_norm`, whose router takes the exact Gram of every sparsified
# state here; each value that this moved lies inside the error band that the
# probe-normalised value had, and oddcat0.5's probes had reached their cap and
# returned that Gram norm before, so its values did not move.  Summing a
# general Gram form by rows over its stored pairs, not through a dense matrix,
# moved nine approx_born entries by 1-2 ulp
REPLAY = {
    ("ring16", 3): (1.009371635429399, 2419, (0.9176105776630898, 1.1215240393659986), 0.04866830975491948, (0.043801478779427534, 0.053535140730411435)),
    ("ring16", 17): (0.9957871068938483, 2452, (0.9052610062671348, 1.1064301187709424), 0.0347183147144037, (0.031246483242963332, 0.03819014618584408)),
    ("ring16", 2024): (1.004802463417167, 2430, (0.9134567849246973, 1.11644718157463), 0.032106268417904316, (0.028895641576113885, 0.03531689525969475)),
    ("ring32", 3): (1.0068742210736978, 2425, (0.9153402009760889, 1.118749134526331), 0.044906895058164635, (0.04041620555234817, 0.0493975845639811)),
    ("ring32", 17): (0.9957871068938489, 2452, (0.9052610062671352, 1.106430118770943), 0.024627322869446994, (0.022164590582502294, 0.027090055156391697)),
    ("ring32", 2024): (1.0043891345552107, 2431, (0.9130810314138279, 1.1159879272835675), 0.024804013771623126, (0.022323612394460814, 0.02728441514878544)),
    ("grid0.3", 3): (1.0016441308680935, 5490, (0.9105855735164485, 1.1129379231867704), 0.12329467375835043, (0.11096520638251539, 0.13562414113418547)),
    ("grid0.3", 17): (1.0016441308680935, 5490, (0.9105855735164485, 1.1129379231867704), 0.13215579628528737, (0.11894021665675863, 0.14537137591381613)),
    ("grid0.3", 2024): (1.0027400216020848, 5484, (0.911581837820077, 1.114155579557872), 0.11717309628104157, (0.10545578665293741, 0.12889040590914574)),
    ("cat2", 3): (0.9999630794421112, 2333, (0.9090573449473737, 1.1110700882690123), 0.012203354426028257, (0.010983018983425432, 0.013423689868631085)),
    ("cat2", 17): (1.0008210486222417, 2331, (0.9098373169293106, 1.1120233873580463), 0.01343735790158062, (0.012093622111422559, 0.014781093691738682)),
    ("cat2", 2024): (1.0003918800765204, 2332, (0.9094471637059275, 1.1115465334183559), 0.01267653994778837, (0.011408885953009533, 0.013944193942567207)),
    ("oddcat0.5", 3): (0.9999999999999998, 2593, (0.9999999999999944, 1.000000000000005), 0.028160885216548248, (0.025344796694893423, 0.030976973738203076)),
    ("oddcat0.5", 17): (0.9999999999999998, 2593, (0.9999999999999944, 1.000000000000005), 0.045326287450696744, (0.04079365870562707, 0.04985891619576642)),
    ("oddcat0.5", 2024): (0.9999999999999998, 2593, (0.9999999999999944, 1.000000000000005), 0.03415870814168734, (0.030742837327518605, 0.03757457895585607)),
    ("gkp", 3): (0.9995457918160565, 3890, (0.9086779925600513, 1.110606435351174), 0.08110180461489422, (0.0729916241534048, 0.08921198507638364)),
    ("gkp", 17): (0.9990321506075179, 3892, (0.9082110460068344, 1.1100357228972422), 0.09265427022712386, (0.08338884320441148, 0.10191969724983625)),
    ("gkp", 2024): (0.9903803184321089, 3926, (0.9003457440291899, 1.1004225760356765), 0.09778580569993006, (0.08800722512993706, 0.10756438626992308)),
    ("two-mode", 3): (1.002112403799759, 2205, (0.911011276181599, 1.1134582264441768), 0.03343414117147563, (0.03009072705432807, 0.0367775552886232)),
    ("two-mode", 17): (0.999845181166728, 2210, (0.9089501646970254, 1.1109390901852534), 0.03638575306016741, (0.032747177754150675, 0.04002432836618416)),
    ("two-mode", 2024): (0.982070155723764, 2250, (0.8927910506579672, 1.0911890619152933), 0.03429644630748756, (0.030866801676738803, 0.03772609093823632)),
}


@pytest.mark.parametrize("name, seed", list(REPLAY))
def test_seeded_estimates_replay_bit_for_bit(name, seed):
    sup = replay_states()[name]()
    est = probe_norm(sup, 0.1, 0.05, seed=seed)
    outcome = [0.3 + 0.2j, -0.1 + 0.4j][: sup.n]
    born = approx_born(sup, outcome, 0.1, 0.1, 0.05, seed=seed)
    assert (est.eta, est.samples, est.band, born.value, born.error_band) == REPLAY[name, seed]


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
    from gsim.phase import propagate
    from gsim.stellar import GaussianUnitary
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
        draws = _husimi_probes(sup, 99)(20_000)[:, 0]
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
        probe_norm(ring, epsilon=0.1, p_fail=0.05, seed=3)
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
