import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsim import counters, fock, phase, simulator, states, stellar
from gsim.exceptions import DimensionMismatch, GsimError, IllConditioned, InvariantViolation
from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze, Symplectic, program_symplectic
from gsim.gaussian import GaussianPure
from gsim.stellar import COND_MAX, check_normalised


from conftest import engine_state, random_circuit, random_pure_program, random_symplectic, stacked


def coherent_overlap(a, b):
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


def sandwich(t, alpha, beta):
    """Coherent matrix element <alpha*|U|beta> of a unitary triple."""
    nu = np.concatenate([np.atleast_1d(alpha), np.atleast_1d(beta)]).astype(complex)
    return t.c * np.exp(-0.5 * np.sum(np.abs(nu) ** 2) + t.b @ nu + 0.5 * nu @ t.a @ nu)


class TestStateParams:
    def test_vacuum(self):
        a, b, log_c = stellar.pure_state_params(np.eye(2), np.zeros(2))
        assert np.allclose(a, 0) and np.allclose(b, 0)
        assert log_c == pytest.approx(0.0)

    def test_single_mode_closed_form(self):
        # displaced squeezed state: A = -tanh(r) e^{i phi}, b = a + a* e^{i phi} tanh(r)
        alpha, r, phi = 0.4 - 0.7j, 0.65, 1.3
        g = engine_state([Squeeze(0, r, phi), Displace(0, alpha)], 1)
        t = g.bargmann
        assert abs(t.a[0, 0] + np.tanh(r) * np.exp(1j * phi)) < 1e-12
        assert abs(t.b[0] - (alpha + np.conj(alpha) * np.exp(1j * phi) * np.tanh(r))) < 1e-12

    def test_coherent_params(self):
        g = GaussianPure.coherent([1.0])
        t = g.bargmann
        assert abs(t.a[0, 0]) < 1e-12
        assert abs(t.b[0] - 1.0) < 1e-12
        assert abs(t.c - np.exp(-0.5)) < 1e-12

    def test_pure_state_moments_inverts_params(self, rng):
        for n in (1, 2, 3):
            for _ in range(20):
                s = random_symplectic(n, rng)
                cov, mean = s @ s.T, rng.normal(size=2 * n)
                a, b, _ = stellar.pure_state_params(cov, mean)
                cov_back, mean_back = stellar.pure_state_moments(a, b)
                assert np.max(np.abs(cov_back - cov)) < 1e-12
                assert np.max(np.abs(mean_back - mean)) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 1.3])
    @pytest.mark.parametrize("r", [3.0, 6.0, 9.0, 12.0])
    def test_params_recover_rotated_squeezing(self, r, phi):
        # D(alpha) S(r, phi)|0>: A = -tanh r e^{i phi}, b = alpha + conj(alpha) e^{i phi} tanh r,
        # recovered from the moments that pure_state_moments derives
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        alpha = 0.4 - 0.7j
        t = engine_state([Squeeze(0, r, phi), Displace(0, alpha)], 1).bargmann
        a, b, _ = stellar.pure_state_params(*stellar.pure_state_moments(t.a, t.b))
        e, th, al = mpmath.expj(phi), mpmath.tanh(r), mpmath.mpc(alpha)
        want_a, want_b = -th * e, al + mpmath.conj(al) * e * th
        assert abs(a[0, 0] - want_a) <= 2e-15 * abs(want_a)
        assert abs(b[0] - want_b) <= 2e-15 * abs(want_b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), depth=st.integers(1, 8))
    def test_moments_round_trip_to_the_triple(self, seed, n, depth):
        # GaussianPure(cov, mean, ref_overlap) of derived moments rebuilds the stored triple
        g = engine_state(random_circuit(n, depth, np.random.default_rng(seed), alpha_max=1.0, r_max=1.0), n)
        t, u = g.bargmann, GaussianPure(g.cov, g.mean, g.ref_overlap).bargmann
        assert np.max(np.abs(u.a - t.a)) <= 1e-12
        assert np.max(np.abs(u.b - t.b)) <= 1e-12
        assert abs(np.exp(u.log_c - t.log_c) - 1) <= 1e-12

    def test_pure_state_moments_keeps_squeezed_variance(self):
        # sigma_qq = |1 + A|^2 / (1 - |A|^2) exactly for the stored A; a
        # (sigma + 1) - 1 route loses about 1e-16 / sigma_qq of it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for r in (3.0, 6.0, 9.0):
            a = engine_state([Squeeze(0, r)], 1).bargmann.a
            cov, _ = stellar.pure_state_moments(a, np.zeros(1))
            am = mpmath.mpc(complex(a[0, 0]))
            exact = abs(1 + am) ** 2 / (1 - abs(am) ** 2)
            assert abs(cov[0, 0] / exact - 1) <= 1e-14

    def test_norm_one_and_spectral_radius(self, rng):
        for _ in range(25):
            g = engine_state(random_pure_program(1, rng), 1)
            t = g.bargmann
            assert stellar.state_norm_squared(t) == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(np.linalg.eigvals(t.a))) < 1.0


class TestUnitaryTriples:
    def test_identity_sandwich_is_coherent_overlap(self, rng):
        t = stellar.identity_params(2)
        assert sandwich(t, [0, 0], [0, 0]) == pytest.approx(1.0)
        for _ in range(10):
            al = rng.normal(size=2) + 1j * rng.normal(size=2)
            be = rng.normal(size=2) + 1j * rng.normal(size=2)
            got = sandwich(t, al, be)
            expected = np.prod([coherent_overlap(np.conj(al[k]), be[k]) for k in range(2)])
            assert abs(got - expected) < 1e-12

    def test_displacement_composition_phase(self, rng):
        # D(a) D(b) = e^{i Im(a conj(b))} D(a + b)
        for _ in range(10):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            composed = stellar.compose(
                stellar.gate_params(Displace(0, a), 1), stellar.gate_params(Displace(0, b), 1)
            )
            direct = stellar.gate_params(Displace(0, a + b), 1)
            phase = np.exp(1j * np.imag(a * np.conj(b)))
            assert abs(composed.c - phase * direct.c) < 1e-12
            assert np.max(np.abs(composed.b - direct.b)) < 1e-12

    def test_squeeze_inverse_pair(self):
        t = stellar.compose(
            stellar.gate_params(Squeeze(0, 0.8, 0.0), 1),
            stellar.gate_params(Squeeze(0, -0.8, 0.0), 1),
        )
        ident = stellar.identity_params(1)
        assert abs(t.c - 1.0) < 1e-12
        assert np.max(np.abs(t.a - ident.a)) < 1e-12

    def test_compose_identity(self, rng):
        u = stellar.gate_params(Squeeze(0, 0.5, 0.4), 1)
        for other in (stellar.compose(stellar.identity_params(1), u), stellar.compose(u, stellar.identity_params(1))):
            assert np.max(np.abs(other.a - u.a)) < 1e-12
            assert abs(other.c - u.c) < 1e-12

    def test_compose_associativity(self, rng):
        gates = [Squeeze(0, 0.5, 1.0), Displace(0, 0.3 - 0.6j), PhaseShift(0, 0.8)]
        ts = [stellar.gate_params(g, 1) for g in gates]
        left = stellar.compose(stellar.compose(ts[0], ts[1]), ts[2])
        right = stellar.compose(ts[0], stellar.compose(ts[1], ts[2]))
        assert np.max(np.abs(left.a - right.a)) < 1e-10
        assert np.max(np.abs(left.b - right.b)) < 1e-10
        assert abs(left.c - right.c) < 1e-10

    def test_sandwich_beamsplitter_vs_oracle(self):
        t = stellar.gate_params(BeamSplitter(0, 1, np.pi / 4, 0.0), 2)
        got = sandwich(t, [0.0, 0.0], [1.0, 0.0])
        fv = fock.oracle_state([Displace(0, 1.0), BeamSplitter(0, 1, np.pi / 4, 0.0)], 2, cutoff=40)
        expected = fv.amplitudes[0, 0]
        assert abs(got - expected) < 1e-8

    def test_compose_matches_direct_symplectic_up_to_phase(self, rng):
        gates = [
            Squeeze(0, 0.6, 0.3),
            BeamSplitter(0, 1, 0.9, -0.7),
            Displace(1, 0.5 + 0.2j),
            PhaseShift(0, 1.4),
        ]
        s, d = program_symplectic(gates, 2)
        t_composed, t_direct = stellar.program_params(gates, 2), stellar.symplectic_params(s, d)
        assert np.max(np.abs(t_composed.a - t_direct.a)) < 1e-12
        assert np.max(np.abs(t_composed.b - t_direct.b)) < 1e-12
        assert abs(abs(t_composed.c / t_direct.c) - 1.0) < 1e-12  # same modulus, phase gauge may differ
        ket = engine_state(random_pure_program(2, rng, 1.0, 0.8), 2).bargmann
        folded, direct = _fold(gates, ket, 2), stellar.apply_gate(Symplectic(s, d), ket, 2)
        assert np.max(np.abs(folded.a - direct.a)) < 1e-12 and np.max(np.abs(folded.b - direct.b)) < 1e-12
        assert abs(abs(folded.c / direct.c) - 1.0) < 1e-12

    def test_symplectic_gates_identity_phase(self):
        # the identity and a passive S with d = 0 add no phase, as their gates add none
        passive = program_symplectic([BeamSplitter(0, 1, 0.7, 0.2), PhaseShift(1, 1.1)], 2)[0]
        for s in (np.eye(4), passive):
            t = stellar.apply_gate(Symplectic(s, np.zeros(4)), _vacuum(2), 2)
            assert abs(t.c - 1.0) < 1e-15


class TestEvaluation:
    def test_apply_to_state_matches_vacuum_composition(self, rng):
        gates = [Squeeze(0, 0.7, -0.4), Displace(0, 0.6 + 0.3j), PhaseShift(0, 0.5)]
        t_u = stellar.program_params(gates, 1)
        vac = stellar.StellarParams(np.zeros((1, 1)), np.zeros(1), 0.0)
        ket = stellar.apply_to_state(t_u, vac)
        # vacuum amplitude of the ket equals <0|U|0> from the sandwich
        assert abs(ket.c - sandwich(t_u, [0.0], [0.0])) < 1e-12

    def test_state_overlap_vs_oracle(self, rng):
        for _ in range(10):
            g1 = engine_state(random_pure_program(1, rng, 1.2, 0.9), 1)
            g2 = engine_state(random_pure_program(1, rng, 1.2, 0.9), 1)
            val = stellar.state_overlap(g1.bargmann, g2.bargmann)
            # rebuild in truncated Fock space from the holomorphic series
            cut = 80
            ks = np.arange(cut)
            from math import factorial

            fact = np.array([float(factorial(k)) for k in ks])
            v1 = np.array([stellar.fock_amplitude(g1.bargmann, k) for k in range(cut)])
            v2 = np.array([stellar.fock_amplitude(g2.bargmann, k) for k in range(cut)])
            brute = np.vdot(v1, v2)
            assert abs(val - brute) < 1e-9

    def test_coherent_amplitude_batch_matches_scalar(self, rng):
        g = engine_state(random_pure_program(2, rng, 1.0, 0.6), 2)
        xis = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        batch = stellar.coherent_amplitude_batch(g.bargmann, xis)
        for k in range(7):
            assert abs(batch[k] - stellar.coherent_amplitude(g.bargmann, xis[k])) < 1e-12

    def test_fock_amplitudes_closed_forms(self):
        from math import factorial

        g = GaussianPure.coherent([0.7 - 0.2j])
        alpha = 0.7 - 0.2j
        for nph in range(5):
            expected = np.exp(-0.5 * abs(alpha) ** 2) * alpha**nph / np.sqrt(factorial(nph))
            assert abs(stellar.fock_amplitude(g.bargmann, nph) - expected) < 1e-12
        sq = engine_state([Squeeze(0, 0.9)], 1)
        # squeezed vacuum: <2|S> = -tanh(r)/sqrt(2 cosh r) * sqrt(2!)/2 ... use series
        t = sq.bargmann
        expected2 = t.c * np.sqrt(2.0) * (t.a[0, 0] / 2)
        assert abs(stellar.fock_amplitude(t, 2) - expected2) < 1e-14
        assert abs(stellar.fock_amplitude(t, 1)) < 1e-14

    def test_fock11_amplitude_vs_oracle(self, rng):
        gates = random_pure_program(2, rng, 1.0, 0.7)
        g = engine_state(gates, 2)
        fv = fock.oracle_state(gates, 2, cutoff=40)
        assert abs(stellar.fock11_amplitude(g.bargmann) - fv.amplitudes[1, 1]) < 1e-9

    def test_far_separated_states_underflow_gracefully(self):
        # log-domain kernel keeps tiny overlaps exact until genuine underflow
        g1 = GaussianPure.coherent([16.0])
        g2 = GaussianPure.coherent([-16.0])
        val = stellar.state_overlap(g1.bargmann, g2.bargmann)
        assert abs(val - np.exp(-512.0)) < 1e-230
        deep1 = GaussianPure.coherent([30.0])
        deep2 = GaussianPure.coherent([-30.0])
        assert stellar.state_overlap(deep1.bargmann, deep2.bargmann) == 0.0
        near = GaussianPure.coherent([16.05])
        val2 = stellar.state_overlap(g1.bargmann, near.bargmann)
        expected = coherent_overlap(16.0, 16.05)
        assert abs(val2 - expected) < 1e-12


class TestAmplitudeTable:
    @staticmethod
    def _random_stack(rng, m, k):
        # symmetric A of spectral norm below 1; b and log c of order one
        a = rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m))
        a = a + np.swapaxes(a, -1, -2)
        a *= (rng.uniform(0, 0.95, k) / np.linalg.norm(a, 2, axis=(-2, -1)))[:, None, None]
        b = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        log_c = rng.uniform(-2, 2, k) + 1j * rng.uniform(-np.pi, np.pi, k)
        return stellar.StellarParams(a, b, log_c)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(m=3, k=7, seed=1183)  # a sum of moduli in another order than d . W is 1.1e-15 off
    def test_amplitudes_and_log_sums_against_the_per_term_formulas(self, m, k, seed):
        rng = np.random.default_rng(seed)
        t = self._random_stack(rng, m, k)
        xis = rng.normal(size=(6, m)) + 1j * rng.normal(size=(6, m))
        xis *= (rng.uniform(0, 5, 6) / np.linalg.norm(xis, axis=1))[:, None]  # |xi| <= 5
        table = stellar.AmplitudeTable(t)
        got, _ = table.amplitudes(xis)
        u = stellar.UNIT_ROUNDOFF
        # W_j = (log c_j, b_j, vec(A_j) / 2), written out from the formula
        w = np.column_stack([t.log_c, t.b, 0.5 * t.a.reshape(k, m * m)])
        for row, xi in enumerate(xis):
            xb = np.conj(xi)
            (single,), (bounds,) = table.amplitudes(xi[None])
            # the sum S of the log's summand moduli as one product: |d(xi)| . |W_j| + |xi|^2/2
            d = np.concatenate([[1.0], xb, np.outer(xb, xb).ravel()])
            sums = np.abs(d) @ np.abs(w).T + 0.5 * np.vdot(xi, xi).real
            for j in range(k):
                log_ref = t.log_c[j] - 0.5 * np.vdot(xi, xi).real + t.b[j] @ xb + 0.5 * xb @ t.a[j] @ xb
                # both sides round the log to about u times the sum of its summands'
                # moduli, at most about 50 here, which bounds the amplitudes' relative gap
                assert abs(got[row, j] - np.exp(log_ref)) <= 1e-13 * abs(np.exp(log_ref))
                assert abs(single[j] - np.exp(log_ref)) <= 1e-13 * abs(np.exp(log_ref))
                want = u * (stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * sums[j]) * abs(single[j])
                assert bounds[j] == pytest.approx(want, rel=1e-15, abs=0)
        # a one-term table takes other BLAS kernels than a stack of k
        one = stellar.coherent_amplitude(t[0], xis[0])
        assert np.ndim(one) == 0 and one == pytest.approx(table.amplitudes(xis[:1])[0][0, 0], rel=2e-13, abs=0)
        assert np.array_equal(stellar.coherent_amplitude(t, xis[0]), table.amplitudes(xis[:1])[0][0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_every_single_outcome_is_row_0_of_a_block_of_one(self, m, k, seed):
        rng = np.random.default_rng(seed)
        t = self._random_stack(rng, m, k)
        t.log_c = stellar.log_magnitude(t.a, t.b) + 1j * t.log_c.imag  # normalised kets
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        sup = states.Superposition.from_stack(coeffs, t)
        xi = rng.normal(size=m) + 1j * rng.normal(size=m)
        table = sup.amplitude_table
        (row,), _ = table.amplitudes(xi[None])
        assert np.array_equal(table.amplitudes(xi[None])[0][0], row)
        assert np.array_equal(stellar.coherent_amplitude(t, xi), row)
        amp = complex(sup.coeffs @ row)
        assert sup.coherent_amplitude(xi) == amp
        assert simulator.exact_born(sup, xi).value == abs(amp) ** 2 / (np.pi**m * sup.norm_squared())
        one = stellar.AmplitudeTable(t[0]).amplitudes(xi[None])[0][0, 0]
        assert stellar.coherent_amplitude(t[0], xi) == one

    def test_outcomes_of_the_wrong_width_are_rejected(self):
        table = stellar.AmplitudeTable(stellar.vacuum(2, 3))
        for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(DimensionMismatch):
                table.amplitudes(bad)
        for bad in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
            with pytest.raises(DimensionMismatch):
                table.amplitudes(np.atleast_1d(bad)[None])
            with pytest.raises(DimensionMismatch):
                stellar.coherent_amplitude(stellar.vacuum(2, 3), bad)
        with pytest.raises(DimensionMismatch):
            stellar.coherent_amplitude(stellar.vacuum(2), [0.1])

    def test_evaluations_are_counted_per_outcome_and_term(self):
        t = self._random_stack(np.random.default_rng(5), 2, 7)
        table = stellar.AmplitudeTable(t)
        counters.tally.reset()
        table.amplitudes(np.zeros((5, 2)))
        table.amplitudes([[0.1, 0.2]])
        stellar.ProbeValues(table, np.ones(7), 7.0).block(np.zeros((3, 2)))
        stellar.coherent_amplitude(t, [0.1, 0.2])
        stellar.coherent_amplitude_batch(t[3], np.zeros((4, 2)))
        assert counters.tally.amplitude_evals == 5 * 7 + 7 + 3 * 7 + 7 + 4


def test_compose_large_displacement_onto_p_squeezer():
    # intermediate factors overflow in linear arithmetic; the composed
    # amplitude itself is representable and must come out finite
    t = stellar.compose(
        stellar.gate_params(Displace(0, 31.0), 1),
        stellar.gate_params(Squeeze(0, 2.3, np.pi), 1),
    )
    assert np.isfinite(t.c.real) and np.isfinite(t.c.imag)
    mag = abs(t.c)
    # |<0|U|0>|: displaced anti-squeezed vacuum amplitude, closed form
    r = 2.3
    cov = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    mean = np.array([np.sqrt(2) * 31.0, 0.0])
    total = cov + np.eye(2)
    fid = 2 * np.exp(-mean @ np.linalg.solve(total, mean)) / np.sqrt(np.linalg.det(total))
    assert abs(mag - np.sqrt(fid)) < 1e-12 * max(np.sqrt(fid), 1e-30)


class TestOverlapKernel:
    """The batched kernel state_overlaps against independent references."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), pairs=st.integers(1, 6))
    def test_matches_triple_product(self, seed, n, pairs):
        rng = np.random.default_rng(seed)
        left, right = (
            [engine_state(random_circuit(n, 8, rng, alpha_max=0.8, r_max=0.5), n) for _ in range(pairs)]
            for _ in range(2)
        )
        aligned = np.arange(pairs)
        vals, _ = stellar.state_overlaps(stacked(left), stacked(right), aligned, aligned)
        assert vals.shape == (pairs,)
        for val, g1, g2 in zip(vals, left, right):
            assert abs(val - phase.overlap(g1, g2)) < 1e-10

    def test_far_separated_grid_terms_underflow_to_exact_zero(self):
        # grid terms at delta = 0.01: neighbours overlap at about e^{-7854},
        # far below the double range, while the log domain keeps e^{-300}
        delta = 0.01
        step = np.sqrt(np.pi / 2)
        shifts = [-2 * step, 0.0, step, 3 * step, 0.002, 0.245]
        terms = [engine_state([Squeeze(0, -np.log(delta)), Displace(0, x)], 1) for x in shifts]
        i, j = np.triu_indices(len(terms))
        vals, _ = stellar.state_overlaps(stacked(terms), stacked(terms), i, j)
        for val, p, q in zip(vals, i, j):
            g1, g2 = terms[p], terms[q]
            total = g1.cov + g2.cov
            d = g1.mean - g2.mean
            log_mag = 0.5 * (np.log(2.0) - d @ np.linalg.solve(total, d) - 0.5 * np.log(np.linalg.det(total)))
            assert val == stellar.state_overlap(g1.bargmann, g2.bargmann)
            if log_mag < -1000:
                assert val == 0.0
            else:
                assert log_mag > -400
                assert abs(abs(val) - np.exp(log_mag)) < 1e-9 * np.exp(log_mag)
        # every pair of distinct grid points, and each small shift with the grid points off 0
        assert np.sum(vals == 0.0) == 6 + 2 * 3

    def test_log_domain_keeps_overlaps_far_from_the_origin(self):
        # at |alpha| = 30 the vacuum amplitudes (e^{-450}) and the exponential
        # factor (e^{+900}) leave the double range, the overlaps do not
        alphas = [(30.0, 30.05), (30.0, 30.0 + 0.4j), (30.0, -30.0)]
        left = [GaussianPure.coherent([a]) for a, _ in alphas]
        right = [GaussianPure.coherent([b]) for _, b in alphas]
        vals, _ = stellar.state_overlaps(stacked(left), stacked(right), [0, 1, 2], [0, 1, 2])
        for val, (a, b) in zip(vals[:2], alphas):
            assert abs(val - coherent_overlap(a, b)) < 1e-10
        assert vals[2] == 0.0

    @staticmethod
    def _random_pairs(rng, count):
        """Two stacks of count random two-mode kets, and the aligned index vector."""
        terms = [engine_state(random_pure_program(2, rng, 1.0, 0.6), 2) for _ in range(2 * count)]
        return stacked(terms[:count]), stacked(terms[count:]), np.arange(count)

    def test_one_ill_conditioned_pair_raises(self, rng):
        t1, t2, k = self._random_pairs(rng, 7)
        stellar.state_overlaps(t1, t2, k, k)
        # Y = 1 - conj(A) A = diag(1, sech(15)^2): condition number ~2.7e12
        t1.a[4] = t2.a[4] = np.diag([0.0, np.tanh(15.0)])
        with pytest.raises(IllConditioned):
            stellar.state_overlaps(t1, t2, k, k)

    def test_eigenvalue_off_right_half_plane_raises(self, rng):
        t1, t2, k = self._random_pairs(rng, 5)
        t1.a[2] = t2.a[2] = np.diag([1.5, 0.0])  # Y = diag(-1.25, 1) is well conditioned
        with pytest.raises(GsimError) as err:
            stellar.state_overlaps(t1, t2, k, k)
        assert not isinstance(err.value, IllConditioned)

    def test_batches_split_into_chunks_agree(self, rng, monkeypatch):
        t1, t2, k = self._random_pairs(rng, 10)
        whole, whole_bounds = stellar.state_overlaps(t1, t2, k, k)
        monkeypatch.setattr(stellar, "OVERLAP_CHUNK", 3)
        counters.tally.reset()
        vals, bounds = stellar.state_overlaps(t1, t2, k, k)
        assert np.array_equal(vals, whole) and np.array_equal(bounds, whole_bounds)
        assert counters.tally.overlap_evals == 10
        t1.a[8] = t2.a[8] = np.diag([0.0, np.tanh(15.0)])
        with pytest.raises(IllConditioned):
            stellar.state_overlaps(t1, t2, k, k)

    def test_index_vectors_gather_pairs(self, rng, monkeypatch):
        # index pairs into two stacks equal the same pairs stacked out by hand
        t1, t2, _ = self._random_pairs(rng, 6)
        i, j = np.divmod(np.arange(36), 6)
        monkeypatch.setattr(stellar, "OVERLAP_CHUNK", 5)
        got, _ = stellar.state_overlaps(t1, t2, i, j)
        want = [stellar.state_overlap(t1[p], t2[q]) for p, q in zip(i, j)]
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_counts_every_pair(self, rng):
        t1, t2, k = self._random_pairs(rng, 5)
        counters.tally.reset()
        vals, _ = stellar.state_overlaps(t1, t2, k, k)
        one = stellar.state_overlap(t1[0], t2[0])
        assert counters.tally.overlap_evals == 6
        assert abs(one - vals[0]) <= 1e-15


class TestContraction:
    """state_overlaps, apply_to_state and compose: one Gaussian contraction."""

    @staticmethod
    def _contractions(m):
        """Each caller on a kernel Y = 1 - M M of one to three modes, M real symmetric, with its label."""
        n = m.shape[0]
        eye, zero = np.eye(n), np.zeros((n, n))
        ket = stellar.StellarParams(m, np.array([0.3, -0.1j, 0.2])[:n], 0.0)
        d_is_m = stellar.StellarParams(np.block([[zero, eye], [eye, m]]), np.zeros(2 * n), 0.0)
        b_is_m = stellar.StellarParams(np.block([[m, eye], [eye, zero]]), np.zeros(2 * n), 0.0)
        return {
            "state_overlaps": (lambda: stellar.state_overlaps(ket[None], ket[None], [0], [0]), "overlap kernel"),
            "apply_to_state": (lambda: stellar.apply_to_state(d_is_m, ket), "state-application kernel"),
            "compose": (lambda: stellar.compose(d_is_m, b_is_m), "composition kernel"),
        }

    @pytest.mark.parametrize("caller", ["state_overlaps", "apply_to_state", "compose"])
    @pytest.mark.parametrize(
        "m, exc",
        [
            (np.diag([0.0, np.tanh(15.0)]), IllConditioned),  # Y = diag(1, sech(15)^2): cond ~2.7e12
            (np.diag([1.5, 0.0]), GsimError),  # Y = diag(-1.25, 1) is well conditioned
            # one mode: a NaN fails the condition test, y = -1.25 the half-plane one
            (np.array([[np.nan]]), IllConditioned),
            (np.array([[1.5]]), GsimError),
            # two modes: a non-finite kernel fails before LAPACK, which would raise LinAlgError
            (np.diag([np.nan, 0.0]), IllConditioned),
            (np.diag([0.0, np.inf]), IllConditioned),
        ],
        ids=["ill_conditioned", "off_right_half_plane", "one_mode_nan", "one_mode_off_right_half_plane", "two_mode_nan", "two_mode_inf"],
    )
    def test_every_caller_keeps_both_kernel_checks(self, caller, m, exc):
        call, label = self._contractions(m)[caller]
        with pytest.raises(exc, match=label) as err:
            call()
        assert exc is IllConditioned or not isinstance(err.value, IllConditioned)

    @pytest.mark.parametrize("caller", ["state_overlaps", "apply_to_state", "compose"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_caller_names_a_non_finite_kernel(self, caller, n, bad):
        # a non-finite entry of M on any leg makes Y non-finite: IllConditioned with cond nan,
        # whether the kernel takes the flat one-mode form or the (m, m) one
        for leg in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[leg, leg] = bad
            call, label = self._contractions(m)[caller]
            with pytest.raises(IllConditioned) as err:
                call()
            assert str(err.value) == f"{label} is ill-conditioned (cond=nan)"

    @pytest.mark.parametrize("caller", ["state_overlaps", "apply_to_state", "compose"])
    @pytest.mark.parametrize("n", [1, 2], ids=["one_mode", "two_mode"])
    def test_every_caller_rejects_a_zero_kernel(self, caller, n):
        # M = 1 gives Y = 0: singular, so cond_2(Y) is inf (not 0/0) and fails the check
        call, label = self._contractions(np.eye(n))[caller]
        with pytest.raises(IllConditioned, match=rf"{label} is ill-conditioned \(cond=inf\)"):
            call()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(3, 6))
    def test_composition_is_associative_on_stacks(self, seed, n, k):
        # (U1 U2)|psi> = U1 (U2 |psi>) for every ket of a stack, log c included
        rng = np.random.default_rng(seed)
        u1, u2 = (stellar.program_params(random_circuit(n, 8, rng, alpha_max=0.8, r_max=0.5), n) for _ in range(2))
        kets = stacked([engine_state(random_pure_program(n, rng), n) for _ in range(k)])
        joint = stellar.apply_to_state(stellar.compose(u1, u2), kets)
        chain = stellar.apply_to_state(u1, stellar.apply_to_state(u2, kets))
        for x, y in ((joint.a, chain.a), (joint.b, chain.b), (joint.log_c, chain.log_c)):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def _one_mode_stack(rng, k, r_max=12.0, alpha_max=2.0):
    """k kets D(alpha) S(r, phi)|0>, r up to r_max and |alpha| up to alpha_max."""
    t = stellar.StellarParams(np.zeros((k, 1, 1)), np.zeros((k, 1)), np.zeros(k))
    t = stellar.apply_gate(Squeeze(0, rng.uniform(0, r_max, k), rng.uniform(0, 2 * np.pi, k)), t, 1)
    alpha = alpha_max * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
    return stellar.apply_gate(Displace(0, alpha), t, 1)


def _two_mode(t, copy: bool):
    """Each ket of a one-mode stack tensored with the vacuum, or with itself (``copy``)."""
    k = t.log_c.shape[0]
    a, b = np.zeros((k, 2, 2), dtype=complex), np.zeros((k, 2), dtype=complex)
    a[:, 0, 0], b[:, 0] = t.a[:, 0, 0], t.b[:, 0]
    if copy:
        a[:, 1, 1], b[:, 1] = t.a[:, 0, 0], t.b[:, 0]
    return stellar.StellarParams(a, b, (2 if copy else 1) * t.log_c)


def _overlaps_and_sums(t, i, j):
    """state_overlaps(t, t, i, j) and the S of each pair, the sum of the
    moduli of its log-domain summands, as `stellar._rounded` receives it."""
    seen, rounded = [], stellar._rounded

    def recording(exponents, sums, kernel):
        seen.append(np.array(sums, copy=True))
        return rounded(exponents, sums, kernel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stellar, "_rounded", recording)
        vals, bounds = stellar.state_overlaps(t, t, i, j)
    return vals, bounds, np.concatenate(seen)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), m1=st.integers(1, 2), m2=st.integers(1, 2), single=st.booleans())
def test_tensor_overlaps_factor_into_those_of_the_factors(seed, k, m1, m2, single):
    # <G1_i (x) G2_i|G1_j (x) G2_j> = <G1_i|G1_j><G2_i|G2_j>; a single second
    # factor broadcasts over the stack, and every product ket stays normalised
    rng = np.random.default_rng(seed)
    t1 = stacked([engine_state(random_pure_program(m1, rng, 1.5, 1.0), m1) for _ in range(k)])
    t2 = stacked([engine_state(random_pure_program(m2, rng, 1.5, 1.0), m2) for _ in range(1 if single else k)])
    t2 = t2[0] if single else t2
    t = stellar.tensor(t1, t2)
    assert t.a.shape == (k, m1 + m2, m1 + m2) and t.log_c.shape == (k,)
    check_normalised(t)
    i, j = np.divmod(np.arange(k * k), k)
    second = stellar.state_overlap(t2, t2) if single else stellar.state_overlaps(t2, t2, i, j)[0]
    want = stellar.state_overlaps(t1, t1, i, j)[0] * second
    assert np.allclose(stellar.state_overlaps(t, t, i, j)[0], want, rtol=1e-13, atol=0)


class TestOneModeClosedForms:
    """At one mode the overlap, normalisation and squeeze kernels run without
    LAPACK (|y|, y and 1/y for the 1 x 1 Y), and state application contracts
    its 1 x 1 Y as any other; the same kets on two modes are the reference."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_overlaps_match_the_two_mode_path(self, seed, k):
        t = _one_mode_stack(np.random.default_rng(seed), k)
        i, j = np.divmod(np.arange(k * k), k)
        vals, bounds, sums = _overlaps_and_sums(t, i, j)
        ref, _, ref_sums = _overlaps_and_sums(_two_mode(t, False), i, j)
        # each value lies within its own rounding bound of the exact overlap:
        # 1e-14 relative where the log-domain summands do not cancel, and at
        # r ~ 12 a self-overlap's summands cancel by ten orders
        u = stellar.UNIT_ROUNDOFF
        slack = 2 * stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * (sums + ref_sums)
        assert np.all(np.abs(vals - ref) <= np.maximum(1e-14, u * slack) * np.abs(ref))
        per_unit = u * (stellar.KERNEL_ULPS + stellar.LOG_SUM_ULPS * sums) * np.abs(vals)
        assert np.all(np.abs(bounds - per_unit) <= 4 * u * per_unit)
        # a ket tensored with itself doubles every summand: Y = diag(y, y)
        # keeps the singular values, so the sums double too, up to the few
        # roundings of each of their six terms (3201 stacks: at most 7.1 u).
        # A square in the subnormal range keeps too few digits for a relative
        # bound alone (seed 41259, k 8: |sq| = 7e-322 and sq - vals^2 one
        # subnormal step apart), hence the floor of four such steps
        sq, _, sq_sums = _overlaps_and_sums(_two_mode(t, True), i, j)
        assert np.all(np.abs(sq_sums - 2 * sums) <= 8 * u * sq_sums)
        floor = 4 * 2.0**-1074
        assert np.all(np.abs(sq - vals**2) <= np.maximum(1e-14, 2 * u * slack) * np.abs(sq) + floor)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_log_magnitude_matches_the_two_mode_path(self, seed, k):
        t = _one_mode_stack(np.random.default_rng(seed), k)
        two = _two_mode(t, False)
        got, ref = stellar.log_magnitude(t.a, t.b), stellar.log_magnitude(two.a, two.b)
        # the first-order effect of one rounding of y = 1 - |a|^2 and of |log c|
        a, b = np.abs(t.a[:, 0, 0]), np.abs(t.b[:, 0])
        y = 1.0 - a * a
        spread = (0.25 + 0.5 * b * b * (1.0 + a) / y) / y + np.abs(ref)
        assert np.all(np.abs(got - ref) <= 4 * stellar.UNIT_ROUNDOFF * spread)
        check_normalised(t)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12))
    def test_state_application_matches_the_two_mode_path(self, seed, k):
        rng = np.random.default_rng(seed)
        t = _one_mode_stack(rng, k, r_max=3.0)
        s, d = random_symplectic(1, rng), rng.normal(size=2)
        got = stellar.apply_to_state(stellar.symplectic_params(s, d), t)
        big_s = np.eye(4)
        big_s[:2, :2] = s
        ref = stellar.apply_to_state(stellar.symplectic_params(big_s, np.concatenate([d, [0.0, 0.0]])), _two_mode(t, False))
        assert np.max(np.abs(ref.a[:, 1:, :])) == np.max(np.abs(ref.b[:, 1])) == 0.0
        for x, y in ((got.a[:, 0, 0], ref.a[:, 0, 0]), (got.b[:, 0], ref.b[:, 0]), (got.log_c, ref.log_c)):
            assert np.all(np.abs(x - y) <= 1e-13 * np.maximum(np.abs(y), 1.0))


def _vacuum(n):
    return stellar.StellarParams(np.zeros((n, n)), np.zeros(n), 0.0)


class TestHalfLog:
    """The principal log(z)/2 from real vector loops, and the kernels that take
    every log of a complex value through it."""

    def test_matches_mpmath_on_the_right_half_plane(self):
        # moduli from 1e-300 to 2 and points within 1e-12 of 1, with and
        # without the modulus: log |z| from a given |z| keeps an absolute error
        # of a few u; formed from z itself near |z| = 1, as libm's clog forms
        # it, it keeps the relative precision of its summands x^2 - 1 and y^2
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(39)
        far = 10.0 ** rng.uniform(-300, np.log10(2.0), 400) * np.exp(1j * rng.uniform(-1.57, 1.57, 400))
        near_one = 1.0 + 1e-12 * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
        z = np.concatenate([far, near_one, [1.0, 2.0, 1e-300, 1e-300 + 1e-300j, 1 + 1e-12j, 1e-300 + 1j, 0.6 + 0.8j]])
        got, given = stellar._half_log(z), stellar._half_log(z, np.abs(z))
        u = stellar.UNIT_ROUNDOFF
        with mp.workdps(50):
            for value, fast, zp in zip(got, given, z):
                ref = mp.log(mp.mpc(complex(zp))) / 2
                for v in (value, fast):
                    assert abs(mp.mpc(complex(v)) - ref) <= 2 * u * (1 + abs(np.log(abs(zp)))), (zp, v)
                if abs(np.log(abs(zp))) < 0.5:
                    summands = abs((zp.real - 1) * (zp.real + 1)) + zp.imag**2
                    assert abs(value.real - ref.real) <= 2 * u * (abs(ref.real) + summands), (zp, value)
        assert np.array_equal(got.imag, given.imag)
        one = stellar._half_log(z[3])
        assert np.ndim(one) == 0 and one == got[3]

    def test_one_mode_kernels_take_no_complex_log(self, monkeypatch):
        # in the style of the LAPACK-free guard: a one-mode general Gram, an
        # orbit row and a squeeze (on a stack, one triple and two modes), and
        # the log-determinant of a two-mode overlap, with a np.log that
        # refuses complex input
        stack = _one_mode_stack(np.random.default_rng(5), 16, r_max=2.0)
        ring = states.fock1_ring(states.optimal_fock1_seed(), 8)
        two = _two_mode(stack, True)
        real_log = np.log

        def guarded(x, *args, **kwargs):
            if np.iscomplexobj(x):
                raise AssertionError("complex np.log on a kernel path")
            return real_log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", guarded)
        general = states.Superposition.from_stack(np.ones(16), stack)
        orbit = states.Superposition.from_stack(np.ones(16), ring.triples, orbit=True)
        for sup, pairs in ((general, 120), (orbit, 15)):
            counters.tally.reset()
            sup.gram_form
            assert counters.tally.overlap_evals == pairs
        for t, n in ((stack, 1), (stack[0], 1), (two, 2)):
            stellar.apply_gate(Squeeze(0, 0.4, 0.3), t, n)
        stellar.state_overlaps(two, two, [0, 1], [1, 0])
        with pytest.raises(AssertionError, match="complex np.log"):
            np.log(np.array([1j]))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("field", ["a", "b", "log_c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_normalised_rejects_a_non_finite_triple(m, field, bad):
    # a NaN err fails the first test and the retry; a non-finite A raises before its norm,
    # whose SVD would raise LinAlgError; the other kets of the stack are the vacuum
    t = stellar.vacuum(m, 3)
    getattr(t, field).reshape(3, -1)[1, 0] = bad
    message = r"not normalisable: \|\|A\|\|_2 = nan" if field == "a" else "ref_overlap modulus disagrees"
    with pytest.raises(InvariantViolation, match=message):
        check_normalised(t)
    with pytest.raises(InvariantViolation, match=message):
        check_normalised(t[1])


def test_check_normalised_allows_the_rounding_of_far_displacements():
    # at |alpha| ~ 1.4e8 log |c| is -1e16, where one ulp is 2: Re log c and
    # log_magnitude round that far apart, while an error of 1e-6 at |alpha| ~ 1
    # still raises
    for gates in ([Displace(0, 1e8 + 1e8j)], [Squeeze(0, 0.5, 0.0), Displace(0, 3e7 + 4e7j)]):
        t = _fold(gates, _vacuum(1), 1)
        assert t.log_c.real < -1e15
        check_normalised(t)
    t = _fold([Displace(0, 0.6 + 0.8j)], _vacuum(1), 1)
    check_normalised(t)
    with pytest.raises(InvariantViolation, match="ref_overlap modulus disagrees"):
        check_normalised(stellar.StellarParams(t.a, t.b, t.log_c + 1e-6))


def _fold(gates, t, n):
    for g in gates:
        t = stellar.apply_gate(g, t, n)
    return t


def _assert_triples_close(t1, t2, tol):
    assert np.max(np.abs(t1.a - t2.a)) <= tol
    assert np.max(np.abs(t1.b - t2.b)) <= tol
    assert abs(t1.c - t2.c) <= tol


class TestGateEngine:
    """The closed-form gate updates against the contraction routes they replace."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), depth=st.integers(1, 8))
    def test_vacuum_fold_matches_applied_unitary(self, seed, n, depth):
        gates = random_circuit(n, depth, np.random.default_rng(seed), alpha_max=1.0, r_max=1.0)
        ket = _fold(gates, _vacuum(n), n)
        _assert_triples_close(ket, stellar.apply_to_state(stellar.program_params(gates, n), _vacuum(n)), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), depth=st.integers(1, 8))
    def test_program_params_matches_composed_chain(self, seed, n, depth):
        gates = random_circuit(n, depth, np.random.default_rng(seed), alpha_max=1.0, r_max=1.0)
        chain = stellar.identity_params(n)
        for g in gates:
            chain = stellar.compose(stellar.gate_params(g, n), chain)
        _assert_triples_close(stellar.program_params(gates, n), chain, 1e-12)

    def test_gate_params_are_the_textbook_blocks(self):
        # the unitary triples the composed chain above starts from
        n, r, th, d = 2, 0.7, 0.4, 0.3 - 0.5j
        t = stellar.gate_params(Squeeze(1, r, th), n)
        expect = stellar.identity_params(n).a
        expect[1, 1] = -np.tanh(r) * np.exp(1j * th)
        expect[3, 3] = np.tanh(r) * np.exp(-1j * th)
        expect[1, 3] = expect[3, 1] = 1 / np.cosh(r)
        assert np.max(np.abs(t.a - expect)) <= 1e-15
        assert np.max(np.abs(t.b)) == 0 and abs(t.c - np.cosh(r) ** -0.5) <= 1e-15
        t = stellar.gate_params(Displace(0, d), n)
        assert np.array_equal(t.a, stellar.identity_params(n).a)
        assert np.max(np.abs(t.b - [d, 0, -np.conj(d), 0])) <= 1e-15
        assert abs(t.c - np.exp(-0.5 * abs(d) ** 2)) <= 1e-15
        from gsim.gates import beamsplitter_unitary

        for gate, u in (
            (BeamSplitter(0, 1, 0.8, 0.3), beamsplitter_unitary(0.8, 0.3)),
            (BeamSplitter(1, 0, 0.8, 0.3), beamsplitter_unitary(0.8, 0.3)[::-1, ::-1]),
            (PhaseShift(1, 0.9), np.diag([1.0, np.exp(0.9j)])),
        ):
            t = stellar.gate_params(gate, n)
            assert np.max(np.abs(t.a[:n, n:] - u)) <= 1e-15 and np.max(np.abs(t.a[n:, :n] - u.T)) <= 1e-15
            assert not t.a[:n, :n].any() and not t.a[n:, n:].any() and not t.b.any() and t.c == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), depth=st.integers(1, 8))
    def test_vacuum_fold_matches_fock_oracle(self, seed, n, depth):
        rng = np.random.default_rng(seed)
        gates = random_circuit(n, depth, rng)
        ket = _fold(gates, _vacuum(n), n)
        fv = fock.oracle_state(gates, n)
        assert abs(ket.c - fv.amplitudes[(0,) * n]) < 1e-8
        if n == 1:
            for k in range(1, 5):
                assert abs(stellar.fock_amplitude(ket, k) - fv.amplitudes[k]) < 1e-8
        else:
            assert abs(stellar.fock11_amplitude(ket) - fv.amplitudes[1, 1]) < 1e-8
        for xi in 0.8 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))):
            assert abs(stellar.coherent_amplitude(ket, xi) - fock.coherent_amplitude(fv, xi)) < 1e-8

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        k=st.integers(1, 4),
        unitary=st.booleans(),
        couple=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.3]),
        scale=st.sampled_from([1.0, 1.0 + 1e-12, 1.5]),
    )
    def test_squeeze_screen_clears_only_well_conditioned_kernels(self, seed, n, k, unitary, couple, scale):
        # kets, or unitary triples, squeezed on leg 0 with r from 12 to 15 and coupled to the last
        # mode by a beamsplitter of angle ``couple``, so that row 0 keeps a norm near 1
        # (``scale`` 1.5 takes it past 1, a triple that is not normalisable); then a second
        # squeeze on leg 0, r from 12 to 15 and aimed against A_00 of the first triple, drives
        # den = 1 - s A_00 towards 0 or past the imaginary axis
        rng = np.random.default_rng(seed)
        base = stellar.identity_params(n) if unitary else _vacuum(n)
        t = stellar.StellarParams(*(np.stack([x] * k) for x in (base.a, base.b)), np.zeros(k))
        t = stellar.apply_gate(Squeeze(0, rng.uniform(12.0, 15.0, k), rng.uniform(0, 2 * np.pi, k)), t, n)
        if n > 1:
            t = stellar.apply_gate(BeamSplitter(0, n - 1, couple, rng.uniform(0, 2 * np.pi)), t, n)
        t = stellar.apply_gate(Displace(0, 0.3 - 0.2j), t, n)
        t = stellar.StellarParams(scale * t.a, t.b, t.log_c)
        r = float(rng.uniform(12.0, 15.0))
        theta = float(np.angle(t.a[0, 0, 0]) + rng.choice([0.0, 1e-13, 1e-7]))
        # the exact checks on the same s and den that apply_gate forms, cond from the SVD of
        # the built kernel Y = 1 - s e_0 a_0^T (Y = den at one leg)
        row = t.a[..., 0, :]
        s = np.tanh(r) * np.conj(np.exp(1j * theta))
        den = 1.0 - s * row[..., 0]
        eye = np.eye(t.modes)
        y = eye - (s * (eye[0, :, None] * row[..., None, :]).T).T
        with np.errstate(divide="ignore", invalid="ignore"):
            sv = np.linalg.svd(y, compute_uv=False)
            cond = np.where(sv[:, -1] == 0, np.inf, sv[:, 0] / sv[:, -1])
        cleared = den.real > (0.0 if t.modes == 1 else 4.0 / COND_MAX)
        assert np.all(cond[cleared] < COND_MAX)
        if np.any(~(sv[:, 0] < COND_MAX * sv[:, -1])):
            exc, msg = IllConditioned, f"squeeze kernel is ill-conditioned (cond={np.max(cond):.3g})"
        elif np.any(den.real <= 0):
            exc, msg = GsimError, "squeeze kernel has eigenvalues off the right half-plane"
        else:
            stellar.apply_gate(Squeeze(0, r, theta), t, n)
            return
        with pytest.raises(exc) as err:
            stellar.apply_gate(Squeeze(0, r, theta), t, n)
        assert type(err.value) is exc and str(err.value) == msg

    def test_well_conditioned_squeezes_skip_the_exact_condition_number(self, monkeypatch, rng):
        calls = []
        exact = stellar._checked_kernel
        monkeypatch.setattr(stellar, "_checked_kernel", lambda y, label: calls.append(label) or exact(y, label))
        kets = stacked([engine_state(random_pure_program(2, rng), 2) for _ in range(8)])
        for t in (kets, kets[0], stellar.identity_params(2), stellar.program_params(random_pure_program(2, rng), 2)):
            for mode in (0, 1):
                stellar.apply_gate(Squeeze(mode, 0.4, 0.3), t, 2)
        assert calls.count("squeeze kernel") == 0
        # Y = diag(den, 1) with den = 1 - tanh(r)^2: at r = 14 (den ~ 2.8e-12, cond ~ 3.6e11)
        # the screen does not clear it and the exact check passes; at r = 15 it raises
        squeezed = stellar.apply_gate(Squeeze(0, 14.0), _vacuum(2), 2)
        stellar.apply_gate(Squeeze(0, 14.0, np.pi), squeezed, 2)
        assert calls.count("squeeze kernel") == 1
        squeezed = stellar.apply_gate(Squeeze(0, 15.0), _vacuum(2), 2)
        with pytest.raises(IllConditioned, match=r"^squeeze kernel is ill-conditioned \(cond=2\.67e\+12\)$"):
            stellar.apply_gate(Squeeze(0, 15.0, np.pi), squeezed, 2)
        assert calls.count("squeeze kernel") == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda x, y: Displace(1, x + 1j * y),
            lambda x, y: Squeeze(0, x, y),
            lambda x, y: PhaseShift(1, x),
            lambda x, y: BeamSplitter(0, 1, x, y),
            lambda x, y: BeamSplitter(1, 0, x, y),
        ],
    )
    def test_per_triple_parameters_act_row_by_row(self, make, rng):
        # a stack of 2-mode kets and a gate with one parameter pair per triple:
        # row k is the scalar gate with pair k on triple k
        kets = stacked([engine_state(random_pure_program(2, rng, 1.0, 0.8), 2) for _ in range(5)])
        p = rng.uniform(-1.0, 1.0, size=(5, 2))
        got = stellar.apply_gate(make(*p.T), kets, 2)
        for k in range(5):
            one = stellar.apply_gate(make(*map(float, p[k])), kets[k], 2)
            for x, y in ((got.a[k], one.a), (got.b[k], one.b), (got.log_c[k], one.log_c)):
                assert np.max(np.abs(x - y)) <= 1e-15 * max(1.0, np.max(np.abs(y)))

    @pytest.mark.parametrize("gate", [Displace(2, 0.1), Squeeze(-1, 0.2), PhaseShift(3, 0.1), BeamSplitter(0, 2, 0.3)])
    def test_out_of_range_mode_raises(self, gate):
        for t in (_vacuum(2), stellar.identity_params(2)):
            with pytest.raises(ValueError, match=r"mode index outside 0\.\.1"):
                stellar.apply_gate(gate, t, 2)
        with pytest.raises(ValueError, match=r"mode index outside 0\.\.1"):
            stellar.program_params([Displace(0, 0.1), gate], 2)

    def test_register_wider_than_the_triple_raises(self):
        with pytest.raises(DimensionMismatch):
            stellar.apply_gate(Displace(0, 0.1), _vacuum(1), 2)

    def test_symplectic_acts_on_kets_of_its_width(self):
        # a whole-register gate on a unitary's out legs, or on a register of another width
        with pytest.raises(DimensionMismatch):
            stellar.apply_gate(Symplectic(np.eye(4), np.zeros(4)), stellar.identity_params(2), 2)
        with pytest.raises(DimensionMismatch):
            stellar.apply_gate(Symplectic(np.eye(2), np.zeros(2)), _vacuum(2), 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(3, 6))
    def test_symplectic_matches_the_gate_fold_on_a_stack(self, seed, n, k):
        # A and b of every ket, and log c up to one constant across the stack, so
        # relative phases are exact
        rng = np.random.default_rng(seed)
        gates = random_pure_program(n, rng)
        kets = stacked([engine_state(random_pure_program(n, rng), n) for _ in range(k)])
        folded, direct = _fold(gates, kets, n), stellar.apply_gate(Symplectic(*program_symplectic(gates, n)), kets, n)
        for x, y in ((direct.a, folded.a), (direct.b, folded.b)):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
        shift = direct.log_c - folded.log_c
        assert np.max(np.abs(shift - shift[0])) <= 1e-12

    def test_squeeze_keeps_the_state_application_checks(self):
        b = np.array([0.3, -0.1j])
        cases = [
            # den = 1 - tanh(15)^2 ~ 3.7e-13 with a coupled row: cond(Y) ~ 3.7e12
            (np.array([[np.tanh(15.0), 0.6], [0.6, 0.2]]), Squeeze(0, 15.0), IllConditioned),
            # den = 1 - 1.5 tanh(1) < 0 with cond(Y) ~ 7
            (np.diag([1.5, 0.0]), Squeeze(0, 1.0), GsimError),
        ]
        for a, gate, exc in cases:
            t = stellar.StellarParams(a, b, 0.0)
            # alone and beside a vacuum in a stack: one bad ket fails the whole stack
            stack = stellar.StellarParams(np.stack([a, np.zeros((2, 2))]), np.stack([b, b]), np.zeros(2))
            for apply in (
                lambda: stellar.apply_to_state(stellar.gate_params(gate, 2), t),
                lambda: stellar.apply_to_state(stellar.gate_params(gate, 2), stack),
                lambda: stellar.apply_gate(gate, t, 2),
                lambda: stellar.apply_gate(Symplectic(*program_symplectic([gate], 2)), stack, 2),
            ):
                with pytest.raises(exc) as err:
                    apply()
                assert exc is IllConditioned or not isinstance(err.value, IllConditioned)


    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), per_triple=st.booleans())
    def test_one_mode_squeeze_is_the_leg_0_block_of_the_two_leg_path(self, seed, k, per_triple):
        # the one-leg closed form A / den, b / den against the rank-one update
        # on the same kets beside a vacuum mode, which stays untouched
        rng = np.random.default_rng(seed)
        t = _one_mode_stack(rng, k)
        size = k if per_triple else None
        r, theta = rng.uniform(0, 8.0, size), rng.uniform(0, 2 * np.pi, size)
        gate = Squeeze(0, r if per_triple else float(r), theta if per_triple else float(theta))
        for one in (t,) if per_triple else (t, t[0]):  # a stack, and one triple with scalar parameters
            got = stellar.apply_gate(gate, one, 1)
            ref = stellar.apply_gate(gate, stellar.tensor(one, stellar.vacuum(1)), 2)
            assert not ref.a[..., 1:, :].any() and not ref.a[..., :, 1:].any() and not ref.b[..., 1].any()
            assert got.a.shape == one.a.shape and got.b.shape == one.b.shape
            # A' = sech^2 r A / den - tanh r e^{i theta}: relative to the moduli of its two terms
            a_scale = np.abs(ref.a[..., 0, 0] + np.tanh(r) * np.exp(1j * theta)) + np.tanh(r)
            assert np.all(np.abs(got.a[..., 0, 0] - ref.a[..., 0, 0]) <= 1e-14 * a_scale)
            assert np.all(np.abs(got.b[..., 0] - ref.b[..., 0]) <= 1e-14 * np.abs(ref.b[..., 0]))
            assert np.all(np.abs(got.log_c - ref.log_c) <= 1e-14 * np.abs(ref.log_c))

    def test_one_mode_squeeze_keeps_the_kernel_checks(self):
        # at one leg Y = den: cond(Y) is infinite exactly where den = 0
        # (IllConditioned), and Re den < 0 is off the right half-plane (GsimError)
        s = np.tanh(1.0)
        assert 1.0 - s * (1.0 / s) == 0.0
        for a, exc in ((1.0 / s, IllConditioned), (1.5, GsimError)):
            t = stellar.StellarParams([[a]], [0.3 - 0.1j], 0.0)
            stack = stellar.StellarParams([[[a]], [[0.0]]], [[0.3 - 0.1j], [0.0]], np.zeros(2))
            for apply in (
                lambda: stellar.apply_gate(Squeeze(0, 1.0), t, 1),
                lambda: stellar.apply_gate(Squeeze(0, 1.0), stack, 1),
                lambda: stellar.apply_gate(Squeeze(0, np.array([1.0, 0.5]), np.array([0.0, 0.2])), stack, 1),
            ):
                with pytest.raises(exc) as err:
                    apply()
                assert exc is IllConditioned or not isinstance(err.value, IllConditioned)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.5)])
    def test_squeeze_rejects_a_non_finite_kernel(self, n, bad):
        # A_00 non-finite on one ket of a stack makes den = 1 - s A_00 non-finite: the screen
        # does not clear it, and the built kernel (den at one leg) fails as ill-conditioned
        a = np.zeros((3, n, n), dtype=complex)
        a[1, 0, 0] = bad
        stack = stellar.StellarParams(a, np.full((3, n), 0.3 - 0.1j), np.zeros(3))
        with pytest.raises(IllConditioned) as err:
            stellar.apply_gate(Squeeze(0, 0.4, 0.3), stack, n)
        assert str(err.value) == "squeeze kernel is ill-conditioned (cond=nan)"

    def test_one_mode_squeeze_through_apply_to_state_is_ill_conditioned_at_den_0(self):
        # den = 1 - tanh(1) A = 0 exactly: the 1 x 1 kernel Y = den is singular, as in apply_gate
        t = stellar.StellarParams([[1.0 / np.tanh(1.0)]], [0.3 - 0.1j], 0.0)
        with pytest.raises(IllConditioned, match="cond=inf"):
            stellar.apply_to_state(stellar.gate_params(Squeeze(0, 1.0), 1), t)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5))
    def test_beamsplitter_on_any_legs_is_its_passive_symplectic(self, seed, k):
        # the mode unitary embedded in the 3 x 3 identity by hand, applied as a
        # whole-register Symplectic gate (a Gaussian contraction)
        from gsim.gates import beamsplitter_unitary, passive_from_unitary

        rng = np.random.default_rng(seed)
        kets = stacked([engine_state(random_pure_program(3, rng, 1.5, 1.0), 3) for _ in range(k)])
        theta, phi = rng.uniform(-np.pi, np.pi, 2)
        for legs in ((0, 2), (2, 0), (1, 2), (1, 0)):
            full = np.eye(3, dtype=complex)
            full[np.ix_(legs, legs)] = beamsplitter_unitary(theta, phi)
            got = stellar.apply_gate(BeamSplitter(*legs, theta, phi), kets, 3)
            ref = stellar.apply_gate(Symplectic(passive_from_unitary(full), np.zeros(6)), kets, 3)
            for x, y in ((got.a, ref.a), (got.b, ref.b)):
                assert np.max(np.abs(x - y)) <= 1e-13 * max(1.0, np.max(np.abs(y)))
            assert np.max(np.abs(got.log_c - ref.log_c)) <= 1e-13 * max(1.0, np.max(np.abs(ref.log_c)))

    @pytest.mark.parametrize(
        "theta, phi",
        [(0.8, None), (0.8, 0.3), (np.array([0.1, -2.0, 3.0]), 0.0), (0.4, np.array([0.5, -1.0])), (np.linspace(-3, 3, 5), np.linspace(2, -1, 5))],
    )
    def test_beamsplitter_unitary_is_the_stacked_construction(self, theta, phi):
        # bit for bit the np.stack construction of its four entries, with scalar and per-triple parameters
        from gsim.gates import beamsplitter_unitary

        got = beamsplitter_unitary(theta) if phi is None else beamsplitter_unitary(theta, phi)
        s = np.sin(theta) * np.exp(1j * (0.0 if phi is None else phi))
        c = np.cos(theta) + 0 * s
        want = np.stack([c, s, -s.conj(), c], -1).reshape(np.shape(s) + (2, 2))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n, legs", [(2, (0, 1)), (2, (1, 0)), (3, (1, 0)), (3, (2, 0)), (3, (0, 1))])
    def test_beamsplitter_is_the_embedded_mode_unitary_bit_for_bit(self, n, legs, rng):
        # the mode unitary embedded in the identity of the whole triple, A -> U A U^T and
        # b -> U b, on kets, one ket and a unitary's triple, with scalar and per-triple angles
        from gsim.gates import beamsplitter_unitary

        kets = stacked([engine_state(random_pure_program(n, rng), n) for _ in range(4)])
        cases = [
            (kets, 0.8, 0.3),
            (kets[0], 0.8, 0.3),
            (kets, rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)),
            (stellar.program_params(random_pure_program(n, rng), n), -1.1, 2.0),
        ]
        for t, theta, phi in cases:
            u, m = beamsplitter_unitary(theta, phi), t.modes
            full = np.zeros(u.shape[:-2] + (m, m), dtype=complex)
            full.reshape(-1, m * m)[:, :: m + 1] = 1.0
            full[..., np.array(legs)[:, None], legs] = u
            got = stellar.apply_gate(BeamSplitter(*legs, theta, phi), t, n)
            assert np.array_equal(got.a, full @ t.a @ np.swapaxes(full, -1, -2))
            assert np.array_equal(got.b, (full @ t.b[..., None])[..., 0])
            assert np.array_equal(got.log_c, t.log_c)


class TestExtremeGatesAgainstMpmath:
    """Squeeze (r = 10..18) and displacement (|delta| up to 30) updates at 50 digits.

    The reference contracts the gate's unitary triple with the ket in mpmath,
    the general formula of apply_to_state, not the rank-one update.
    """

    @staticmethod
    def _mp_apply(mp, gate, t):
        n = t.modes
        a = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in t.a])
        b = mp.matrix([mp.mpc(complex(x)) for x in t.b])
        zero = mp.matrix(n, n)
        bu, cu, du = zero.copy(), mp.eye(n), zero.copy()
        b_out, b_in = mp.matrix(n, 1), mp.matrix(n, 1)
        k = gate.mode
        if isinstance(gate, Squeeze):
            r, th = mp.mpf(gate.r), mp.mpf(gate.theta)
            bu[k, k] = -mp.tanh(r) * mp.expj(th)
            du[k, k] = mp.tanh(r) * mp.expj(-th)
            cu[k, k] = mp.sech(r)
            log_cu = -mp.log(mp.cosh(r)) / 2
        else:
            d = mp.mpc(complex(gate.alpha))
            b_out[k], b_in[k] = d, -mp.conj(d)
            log_cu = -abs(d) ** 2 / 2
        y = mp.eye(n) - du * a
        yi = mp.inverse(y)
        a_new = bu + cu * yi.T * a * cu.T
        b_new = b_out + cu * yi.T * (b + a * b_in)
        log_c = (
            log_cu
            + mp.log(mp.mpc(complex(t.c)))
            - mp.log(mp.det(y)) / 2
            + (b.T * yi * b_in)[0]
            + (b_in.T * yi.T * a * b_in)[0] / 2
            + (b.T * yi * du * b)[0] / 2
        )
        return a_new, b_new, log_c

    def _check(self, gate, t):
        mp = pytest.importorskip("mpmath").mp
        got = stellar.apply_gate(gate, t, t.modes)
        with mp.workdps(50):
            a_ref, b_ref, log_c = self._mp_apply(mp, gate, t)
            c_ratio = complex(got.c / mp.exp(log_c))
        n = t.modes
        assert max(abs(got.a[i, j] - complex(a_ref[i, j])) for i in range(n) for j in range(n)) <= 1e-13
        assert max(abs(got.b[i] - complex(b_ref[i])) for i in range(n)) <= 1e-12 * max(1.0, np.max(np.abs(got.b)))
        assert abs(c_ratio - 1) <= 1e-11

    def test_squeeze_update(self, rng):
        for r in range(10, 19):
            for n in (1, 2):
                t = _fold(random_pure_program(n, rng, alpha_max=1.0, r_max=0.8), _vacuum(n), n)
                self._check(Squeeze(int(rng.integers(0, n)), float(r), rng.uniform(0, 2 * np.pi)), t)

    def test_displacement_update(self, rng):
        for mag in (1.0, 5.0, 12.0, 20.0, 30.0):
            for n in (1, 2):
                t = _fold(random_pure_program(n, rng, alpha_max=1.0, r_max=0.8), _vacuum(n), n)
                delta = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
                self._check(Displace(int(rng.integers(0, n)), delta), t)


class TestEvaluationAgainstMpmath:
    """Overlaps and coherent amplitudes of D(alpha) S(r, theta)|0> at 50 digits,
    with r up to 15 and |alpha| up to 40, where c = e^{log c} underflows.

    The ket's triple is A = -e^{i theta} tanh r, b = alpha + conj(alpha) e^{i theta} tanh r,
    log c = -log(cosh r)/2 - |alpha|^2/2 - e^{i theta} tanh r conj(alpha)^2/2; the engine
    builds it gate by gate.  A double result is compared with the reference's
    log: an exact 0 only where the reference lies below the double range, else
    log|.| and phase within 1e-9 of max(1, |log ref|).
    """

    # (r, theta, alpha)
    KETS = [
        (15.0, 0.0, 0.5),
        (0.0, 0.0, 0.3 + 0.2j),
        (12.0, 0.0, 40.0),
        (12.0, np.pi, 40.0 + 0.1j),
        (10.0, 0.4, 30j),
        (14.0, 0.4 + np.pi / 2, 0.05 + 30j),
        (0.0, 0.0, 40.0),
        (0.0, 0.0, 40.0 * np.exp(0.01j)),
        (0.0, 0.0, -40.0),
        (15.0, 1.0, -40.0),
        (0.0, 0.0, -39.9),
    ]
    # index pairs into KETS; each pair's Y = 1 - conj(A1) A2 is of order one
    PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7), (6, 8), (9, 10), (1, 9), (3, 10)]

    @staticmethod
    def _engine_stack(kets):
        out = [
            stellar.apply_gate(Displace(0, alpha), stellar.apply_gate(Squeeze(0, r, theta), _vacuum(1), 1), 1)
            for r, theta, alpha in kets
        ]
        return stellar.StellarParams(*(np.array([getattr(t, f) for t in out]) for f in ("a", "b", "log_c")))

    @staticmethod
    def _mp_triple(mp, r, theta, alpha):
        t, e, al = mp.tanh(mp.mpf(r)), mp.expj(mp.mpf(theta)), mp.mpc(complex(alpha))
        log_c = -mp.log(mp.cosh(mp.mpf(r))) / 2 - abs(al) ** 2 / 2 - e * t * mp.conj(al) ** 2 / 2
        return -e * t, al + mp.conj(al) * e * t, log_c

    @staticmethod
    def _assert_matches(got, ref_log):
        ref_log = complex(ref_log)
        assert not -760 < ref_log.real < -700, "reference too close to the edge of the double range"
        if ref_log.real < -745:
            assert got == 0
            return
        got_log = np.log(complex(got))
        tol = 1e-9 * max(1.0, abs(ref_log))
        assert abs(got_log.real - ref_log.real) <= tol
        assert abs(np.angle(np.exp(1j * (got_log.imag - ref_log.imag)))) <= tol

    def test_vacuum_amplitude_underflows(self):
        t = self._engine_stack(self.KETS)
        assert np.exp(t.log_c.real).min() == 0.0

    def test_state_overlaps(self):
        mp = pytest.importorskip("mpmath").mp
        t = self._engine_stack(self.KETS)
        i, j = np.array(self.PAIRS).T
        got, _ = stellar.state_overlaps(t, t, i, j)
        with mp.workdps(50):
            for p, (k1, k2) in enumerate(self.PAIRS):
                a1, b1, lc1 = self._mp_triple(mp, *self.KETS[k1])
                a2, b2, lc2 = self._mp_triple(mp, *self.KETS[k2])
                y = 1 - mp.conj(a1) * a2
                quad = (b2 * mp.conj(b1) + mp.conj(b1) ** 2 * a2 / 2 + b2**2 * mp.conj(a1) / 2) / y
                self._assert_matches(got[p], mp.conj(lc1) + lc2 - mp.log(y) / 2 + quad)
        assert (got == 0).any() and (got != 0).any()

    def test_far_separated_grid_pair(self):
        # grid terms D(t sqrt(pi/2)) S(r)|0> with e^{2r} = 1/delta^2 overlap as
        # e^{-(a_t - a_s)^2 e^{2r}/2}: -314 t^2 in the log at delta = 0.05
        mp = pytest.importorskip("mpmath").mp
        sup, _ = states.grid_sensor(0.05)
        mid = (sup.rank - 1) // 2
        steps = np.array([1, 2, 3])
        got, _ = stellar.state_overlaps(sup.triples, sup.triples, np.full(3, mid), mid + steps)
        with mp.workdps(50):
            for value, step in zip(got, steps):
                self._assert_matches(value, -(step**2) * (mp.pi / 2) / (2 * mp.mpf(0.05) ** 2))
        assert got[0] != 0 and (got[1:] == 0).all()

    def _mp_amplitude_log(self, mp, ket, xi):
        # <xi|D(alpha) S(r, theta)|0> in closed form over beta = xi - alpha
        r, theta, alpha = ket
        al, x = mp.mpc(complex(alpha)), mp.mpc(complex(xi))
        beta = x - al
        t, e = mp.tanh(mp.mpf(r)), mp.expj(mp.mpf(theta))
        return (
            -mp.log(mp.cosh(mp.mpf(r))) / 2
            + (al * mp.conj(x) - mp.conj(al) * x) / 2
            - abs(beta) ** 2 / 2
            - e * t * mp.conj(beta) ** 2 / 2
        )

    def test_coherent_amplitudes(self):
        mp = pytest.importorskip("mpmath").mp
        t = self._engine_stack(self.KETS)
        # outcomes at a few kets' centres, near them and far from all
        xis = np.array([[40.0 + 0.2j], [-39.95], [30.1j], [0.4 - 0.1j], [3.0 + 4.0j]])
        batch = stellar.coherent_amplitude_batch(t, xis)
        assert batch.shape == (len(xis), len(self.KETS))
        with mp.workdps(50):
            for row, xi in enumerate(xis[:, 0]):
                single = stellar.coherent_amplitude(t, [xi])
                assert single.shape == (len(self.KETS),)
                for k, ket in enumerate(self.KETS):
                    ref = self._mp_amplitude_log(mp, ket, xi)
                    self._assert_matches(batch[row, k], ref)
                    self._assert_matches(single[k], ref)
                    one = stellar.coherent_amplitude(t[k], [xi])
                    assert np.ndim(one) == 0
                    self._assert_matches(one, ref)
        assert (batch == 0).any() and (np.abs(batch) > 1e-3).any()
