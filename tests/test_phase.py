import numpy as np
import pytest

from gsim import fock, stellar
from gsim.exceptions import DimensionMismatch, ReferenceDegenerate
from gsim.gates import Displace, Squeeze, Symplectic, program_symplectic
from gsim.gaussian import GaussianPure, fidelity_pure
from gsim.phase import (
    GaussianUnitary,
    overlap,
    propagate,
    triple_overlap,
)

from conftest import engine_state, random_pure_program


def coherent_overlap(a, b):
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


class TestTripleOverlap:
    def test_all_vacuum_anchor(self):
        vac = GaussianPure.vacuum(1)
        assert triple_overlap(vac, vac, vac) == pytest.approx(1.0)
        vac2 = GaussianPure.vacuum(2)
        assert triple_overlap(vac2, vac2, vac2) == pytest.approx(1.0)

    def test_coherent_repeated(self):
        vac = GaussianPure.vacuum(1)
        coh = GaussianPure.coherent([1.0])
        assert abs(triple_overlap(vac, coh, coh) - np.exp(-1.0)) < 1e-12

    def test_coherent_phase_sensitive(self):
        vac = GaussianPure.vacuum(1)
        c1 = GaussianPure.coherent([1.0])
        ci = GaussianPure.coherent([1j])
        expected = np.exp(-2.0 + 1.0j)
        assert abs(triple_overlap(vac, c1, ci) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            triple_overlap(GaussianPure.vacuum(1), GaussianPure.vacuum(2), GaussianPure.vacuum(2))

    def test_magnitude_is_product_of_fidelity_roots(self, rng):
        for _ in range(20):
            g0 = engine_state(random_pure_program(1, rng, 1.2, 0.8), 1)
            g1 = engine_state(random_pure_program(1, rng, 1.2, 0.8), 1)
            g2 = engine_state(random_pure_program(1, rng, 1.2, 0.8), 1)
            t = triple_overlap(g0, g1, g2)
            mag = np.sqrt(
                fidelity_pure(g0.as_mixed(), g1)
                * fidelity_pure(g1.as_mixed(), g2)
                * fidelity_pure(g2.as_mixed(), g0)
            )
            assert abs(abs(t) - mag) < 1e-10


class TestOverlap:
    def test_self_overlap_is_one(self, rng):
        for _ in range(10):
            g = engine_state(random_pure_program(2, rng, 1.2, 0.8), 2)
            assert abs(overlap(g, g) - 1.0) < 1e-10

    def test_coherent_pair(self):
        c1 = GaussianPure.coherent([1.0])
        ci = GaussianPure.coherent([1j])
        assert abs(overlap(c1, ci) - np.exp(-1.0 + 1.0j)) < 1e-12

    def test_vacuum_vs_squeezed(self):
        sq = engine_state([Squeeze(0, 1.0)], 1)
        val = overlap(GaussianPure.vacuum(1), sq)
        assert abs(val - 1.0 / np.sqrt(np.cosh(1.0))) < 1e-12

    def test_conjugate_symmetry(self, rng):
        for _ in range(20):
            g1 = engine_state(random_pure_program(1, rng), 1)
            g2 = engine_state(random_pure_program(1, rng), 1)
            assert abs(overlap(g1, g2) - np.conj(overlap(g2, g1))) < 1e-12

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            g1 = engine_state(random_pure_program(1, rng), 1)
            g2 = engine_state(random_pure_program(1, rng), 1)
            assert abs(overlap(g1, g2)) <= 1.0 + 1e-12

    def test_backends_agree_bulk(self, rng):
        # 1000 pairs across 1..3 modes: triple-product and holomorphic routes
        # agree in modulus and phase well inside 1e-8
        worst = 0.0
        for n in (1, 2, 3):
            pool = [
                engine_state(random_pure_program(n, rng, 2.0, 1.5), n) for _ in range(40)
            ]
            for _ in range(334):
                i, j = rng.choice(40, size=2, replace=False)
                a = overlap(pool[int(i)], pool[int(j)])
                b = stellar.state_overlap(pool[int(i)].bargmann, pool[int(j)].bargmann)
                worst = max(worst, abs(a - b))
        assert worst < 1e-8


class TestReanchor:
    def test_gauge_invariance_over_random_references(self, rng):
        # <G1|G2> = T(G0, G1, G2) / (<G0|G1> conj<G0|G2>) for any reference G0
        worst = 0.0
        for _ in range(100):
            g1 = engine_state(random_pure_program(1, rng, 1.2, 0.8), 1)
            g2 = engine_state(random_pure_program(1, rng, 1.2, 0.8), 1)
            ref = engine_state(random_pure_program(1, rng, 0.8, 0.6), 1)
            base = overlap(g1, g2)
            o1 = stellar.state_overlap(ref.bargmann, g1.bargmann)
            o2 = stellar.state_overlap(ref.bargmann, g2.bargmann)
            moved = triple_overlap(ref, g1, g2) / (o1 * np.conj(o2))
            worst = max(worst, abs(base - moved))
        assert worst < 1e-10

    def test_degenerate_reference_retry_succeeds(self):
        # far displaced pair: vacuum gauge is unusable, midpoint retry works
        g1 = GaussianPure.coherent([9.0])
        g2 = GaussianPure.coherent([9.0 + 0.3j])
        val = overlap(g1, g2)
        assert abs(val - coherent_overlap(9.0, 9.0 + 0.3j)) < 1e-10

    def test_degenerate_reference_surfaced(self):
        # opposite far states: no single reference reaches both
        g1 = GaussianPure.coherent([14.0])
        g2 = GaussianPure.coherent([-14.0])
        with pytest.raises(ReferenceDegenerate):
            overlap(g1, g2)


class TestPropagate:
    def test_identity(self):
        vac = GaussianPure.vacuum(1)
        out = propagate(vac, GaussianUnitary((), 1))
        assert abs(out.ref_overlap - 1.0) < 1e-14

    def test_displacement_then_overlap(self):
        for alpha in (0.5, 1.0, 1.0 - 0.7j):
            op = GaussianUnitary.from_gates([Displace(0, alpha)], 1)
            g = propagate(GaussianPure.vacuum(1), op)
            val = overlap(GaussianPure.vacuum(1), g)
            assert abs(val - np.exp(-0.5 * abs(alpha) ** 2)) < 1e-12
            # D(alpha)|0> against the Fock oracle: <0|D(alpha)|0> and the mean sqrt(2) (Re, Im) alpha
            fv = fock.oracle_state([Displace(0, alpha)], 1, cutoff=40)
            assert abs(g.ref_overlap - fv.amplitudes[0]) < 1e-12
            assert np.allclose(g.mean, np.sqrt(2.0) * np.array([np.real(alpha), np.imag(alpha)]), atol=1e-14)

    def test_long_chain_matches_one_shot_composition(self, rng):
        n = 2
        gates = []
        for _ in range(100):
            gates.extend(random_pure_program(n, rng, alpha_max=0.25, r_max=0.15))
        chained = GaussianPure.vacuum(n)
        for g in gates:
            chained = propagate(chained, GaussianUnitary.from_gates([g], n))
        # one-shot side: the composed unitary triple contracted with the vacuum
        one_shot = stellar.apply_to_state(stellar.program_params(gates, n), GaussianPure.vacuum(n).bargmann)
        direct = GaussianPure.from_triple(one_shot)
        val = overlap(chained, direct)
        assert abs(val - 1.0) < 1e-8

    def test_chain_matches_symplectic_route_up_to_phase(self, rng):
        n = 2
        gates = []
        for _ in range(20):
            gates.extend(random_pure_program(n, rng, alpha_max=0.3, r_max=0.2))
        chained = propagate(GaussianPure.vacuum(n), GaussianUnitary.from_gates(gates, n))
        direct = propagate(GaussianPure.vacuum(n), GaussianUnitary((Symplectic(*program_symplectic(gates, n)),), n))
        assert abs(abs(overlap(chained, direct)) - 1.0) < 1e-8


def test_oracle_agreement_small(rng):
    # spot check both backends against the Fock oracle (bulk run in acceptance)
    for n in (1, 2):
        for _ in range(10):
            p1 = random_pure_program(n, rng, alpha_max=1.0, r_max=0.8)
            p2 = random_pure_program(n, rng, alpha_max=1.0, r_max=0.8)
            g1, g2 = engine_state(p1, n), engine_state(p2, n)
            cut = 90 if n == 1 else 70
            f1 = fock.oracle_state(p1, n, cutoff=cut)
            f2 = fock.oracle_state(p2, n, cutoff=cut)
            target = fock.oracle_overlap(f1, f2)
            assert abs(overlap(g1, g2) - target) < 1e-9
            assert abs(stellar.state_overlap(g1.bargmann, g2.bargmann) - target) < 1e-9


def test_triple_kernel_reduces_for_coherent_pair():
    # (sigma2 -/+ i Omega)/2 are complementary projectors, so for a coherent
    # pair (sigma1 = sigma2 = 1) the contraction vanishes and Delta = sigma2
    from gsim.phase import triple_kernel

    delta, mu_d = triple_kernel(np.eye(2), np.eye(2), np.array([0.3, -0.2]), np.array([1.0, 0.5]))
    assert np.allclose(delta, np.eye(2), atol=1e-12)
    assert mu_d.shape == (2,)
