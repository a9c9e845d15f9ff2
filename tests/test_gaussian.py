import numpy as np
import pytest

from gsim import fock, stellar
from gsim.exceptions import DimensionMismatch, IllConditioned, InvariantViolation
from gsim.gates import BeamSplitter, Displace, GaussianChannel, Squeeze, gate_symplectic, omega, program_symplectic
from gsim.gaussian import (
    GaussianMixed,
    GaussianPure,
    GeneralDyne,
    apply_channel,
    apply_symplectic,
    check_admissible,
    compose_channels,
    condition_on_generaldyne,
    fidelity_pure,
    generaldyne_density,
    tensor,
)

from conftest import engine_state, random_cp_channel, random_pure_program, random_symplectic, single_gaussian


def two_mode_squeezer(r):
    """Symplectic of the standard two-mode squeezer, built from primitives."""
    gates = [
        BeamSplitter(0, 1, np.pi / 4, 0.0),
        Squeeze(0, r, 0.0),
        Squeeze(1, -r, 0.0),
        BeamSplitter(0, 1, -np.pi / 4, 0.0),
    ]
    s, _ = program_symplectic(gates, 2)
    return s


class TestSymplecticAction:
    def test_identity(self):
        vac = GaussianMixed.vacuum(1)
        out = apply_symplectic(vac, np.eye(2))
        assert np.allclose(out.cov, np.eye(2))

    def test_single_mode_squeeze_cov(self):
        z = np.sqrt(3.0)
        out = apply_symplectic(GaussianMixed.vacuum(1), np.diag([z, 1 / z]))
        assert np.allclose(out.cov, np.diag([3.0, 1 / 3.0]))

    def test_passive_fixes_two_mode_vacuum(self):
        s, _ = gate_symplectic(BeamSplitter(0, 1, np.pi / 4, 0.3), 2)
        out = apply_symplectic(GaussianMixed.vacuum(2), s)
        assert np.allclose(out.cov, np.eye(4), atol=1e-12)

    def test_rejects_nonsymplectic(self):
        with pytest.raises(ValueError):
            apply_symplectic(GaussianMixed.vacuum(1), np.diag([2.0, 1.0]))

    def test_purity_preserved_under_random_symplectics(self, rng):
        from gsim.gaussian import is_pure_cov

        for _ in range(50):
            n = int(rng.integers(1, 4))
            s = random_symplectic(n, rng)
            out = apply_symplectic(GaussianMixed.vacuum(n), s)
            assert is_pure_cov(out.cov)
            check_admissible(out.cov)


class TestTensorPartialTrace:
    def test_vacua(self):
        both = tensor(GaussianMixed.vacuum(1), GaussianMixed.vacuum(1))
        assert np.array_equal(both.cov, np.eye(4)) and np.array_equal(both.mean, np.zeros(4))
        pure = tensor(GaussianPure.vacuum(1), GaussianPure.coherent([0.5]))
        assert np.allclose(pure.cov, np.eye(4)) and np.allclose(pure.mean, [0.0, 0.0, np.sqrt(0.5), 0.0])


class TestChannels:
    def test_identity_channel(self):
        ch = GaussianChannel(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        out = apply_channel(GaussianMixed.vacuum(1), ch)
        assert np.allclose(out.cov, np.eye(2))

    def test_classical_noise(self):
        nbar = 0.8
        ch = GaussianChannel(np.eye(2), 2 * nbar * np.eye(2), np.zeros(2))
        out = apply_channel(GaussianMixed.vacuum(1), ch)
        assert np.allclose(out.cov, (1 + 2 * nbar) * np.eye(2))

    def test_vacuum_replacement(self):
        ch = GaussianChannel(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        out = apply_channel(GaussianMixed(3 * np.eye(2), np.array([1.0, -2.0])), ch)
        assert np.allclose(out.cov, np.eye(2)) and np.allclose(out.mean, 0)

    def test_inadmissible_channel_rejected(self):
        with pytest.raises(ValueError):
            GaussianChannel(np.eye(2), np.zeros((2, 2)) * 0.0 - 0.1 * np.eye(2), np.zeros(2))

    def test_composition_law(self, rng):
        for _ in range(20):
            x1 = random_symplectic(1, rng) * 0.7
            x2 = random_symplectic(1, rng) * 0.8
            c1 = GaussianChannel(x1, 2.0 * np.eye(2), rng.normal(size=2))
            c2 = GaussianChannel(x2, 1.5 * np.eye(2), rng.normal(size=2))
            rho = GaussianMixed((1 + 2 * 0.3) * np.eye(2), rng.normal(size=2))
            seq = apply_channel(apply_channel(rho, c1), c2)
            combined = apply_channel(rho, compose_channels(c1, c2))
            assert np.max(np.abs(seq.cov - combined.cov)) < 1e-12
            assert np.max(np.abs(seq.mean - combined.mean)) < 1e-12

    @pytest.mark.parametrize(
        "x, y, d, error",
        [
            (np.eye(3), np.eye(3), np.zeros(3), DimensionMismatch),  # odd size
            (np.eye(4)[:, :2], np.eye(4)[:, :2], np.zeros(4), DimensionMismatch),  # not square
            (np.eye(2), np.eye(4), np.zeros(2), DimensionMismatch),  # Y of another size
            (np.eye(2), np.eye(2), np.zeros(4), DimensionMismatch),  # D of another length
            (np.eye(2), [[1.0, 5.0], [0.0, 1.0]], np.zeros(2), ValueError),  # one triangle of Y is CP
        ],
    )
    def test_malformed_channel_rejected(self, x, y, d, error):
        with pytest.raises(error):
            GaussianChannel(x, y, d)

    @pytest.mark.parametrize(
        "x, y, env",
        [
            (np.sqrt(0.3) * np.eye(4), 0.7 * np.eye(4), 2),  # pure loss: one environment mode per mode
            (np.sqrt(0.3) * np.eye(4), 1.9 * np.eye(4), 4),  # thermal loss: two per mode
            (np.eye(2), np.zeros((2, 2)), 0),  # the identity needs none
            (np.diag([2.0, 0.5]), np.zeros((2, 2)), 0),  # nor does a squeeze
            (np.eye(2), np.diag([0.4, 0.0]), 1),  # classical noise on q only
        ],
    )
    def test_dilation_realises_the_channel(self, x, y, env):
        ch = GaussianChannel(x, y, np.zeros(len(x)))
        s = ch.dilation()
        n = len(x) // 2
        assert s.shape == (2 * (n + env), 2 * (n + env))
        assert np.max(np.abs(s @ omega(n + env) @ s.T - omega(n + env))) < 1e-14
        # system block X; vacuum environment noise X_E X_E^T = Y
        assert np.array_equal(s[: 2 * n, : 2 * n], x)
        assert np.max(np.abs(s[: 2 * n, 2 * n :] @ s[: 2 * n, 2 * n :].T - y)) < 1e-14

    def test_dilation_matches_the_covariance_map_on_random_channels(self, rng):
        for n in (1, 2):
            for _ in range(5):
                x, y = random_cp_channel(n, rng)
                s = GaussianChannel(x, y, np.zeros(2 * n)).dilation()
                env = len(s) // 2 - n
                assert env <= 2 * n
                t = random_symplectic(n, rng)
                cov = np.zeros((2 * (n + env),) * 2)
                cov[: 2 * n, : 2 * n], cov[2 * n :, 2 * n :] = t @ t.T, np.eye(2 * env)
                out = (s @ cov @ s.T)[: 2 * n, : 2 * n]
                want = x @ t @ t.T @ x.T + y
                assert np.max(np.abs(out - want)) < 1e-12 * np.max(np.abs(want))

    def test_broken_dilation_is_an_invariant_violation(self, monkeypatch):
        from gsim import gates

        monkeypatch.setattr(gates, "is_symplectic", lambda s: False)
        with pytest.raises(InvariantViolation):
            GaussianChannel(np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2), np.zeros(2)).dilation()


class TestGeneralDyne:
    def test_vacuum_heterodyne_origin(self):
        p = generaldyne_density(GaussianMixed.vacuum(1), GeneralDyne.heterodyne([0]), np.zeros(2))
        assert abs(p - 1 / (2 * np.pi)) < 1e-14

    def test_density_normalizes_on_grid(self):
        state = GaussianMixed(np.diag([0.5, 2.0]), np.array([0.4, -0.3]))
        meas = GeneralDyne.heterodyne([0])
        xs = np.linspace(-8, 8, 321)
        grid = np.array(
            [[generaldyne_density(state, meas, np.array([x, y])) for y in xs] for x in xs]
        )
        from scipy.integrate import simpson

        total = simpson(simpson(grid, x=xs), x=xs)
        assert abs(total - 1.0) < 1e-6

    def test_max_density_at_mean(self):
        mean = np.array([1.0, 2.0])
        state = GaussianMixed(np.eye(2), mean)
        meas = GeneralDyne.heterodyne([0])
        p0 = generaldyne_density(state, meas, mean)
        assert abs(p0 - 1 / (np.pi * 2.0)) < 1e-14
        assert p0 >= generaldyne_density(state, meas, mean + 0.5)

    def test_gaussian_decay_from_mean(self):
        state = GaussianMixed.vacuum(1)
        meas = GeneralDyne.heterodyne([0])
        r = np.array([1.1, -0.7])
        ratio = generaldyne_density(state, meas, r) / generaldyne_density(state, meas, np.zeros(2))
        assert abs(ratio - np.exp(-(r @ r) / 2)) < 1e-12


class TestConditioning:
    def test_product_state_unchanged(self):
        state = tensor(GaussianMixed(np.diag([0.4, 2.5]), np.array([0.3, 0.1])), GaussianMixed.vacuum(1))
        out = condition_on_generaldyne(state, GeneralDyne.heterodyne([1]), np.array([0.9, -0.4]))
        assert np.allclose(out.cov, np.diag([0.4, 2.5]))
        assert np.allclose(out.mean, [0.3, 0.1])

    def test_zero_innovation_keeps_mean(self):
        r = 0.5
        s = two_mode_squeezer(r)
        state = apply_symplectic(GaussianMixed(np.eye(4), np.array([0.2, 0.0, -0.1, 0.4])), s)
        out = condition_on_generaldyne(state, GeneralDyne.heterodyne([1]), state.mean[2:])
        assert np.allclose(out.mean, state.mean[:2], atol=1e-12)

    def test_correlated_nonzero_outcome_matches_triple_route(self):
        # squeezing correlated across the cut by a beamsplitter, conditioned
        # at an outcome away from the measured mean (nonzero innovation)
        from gsim.simulator import condition

        gates = [Displace(0, 0.3 - 0.2j), Squeeze(0, 0.5), BeamSplitter(0, 1, 0.6)]
        s, d = program_symplectic(gates, 2)
        state = GaussianMixed(s @ s.T, d)
        xi = 0.5 + 0.3j
        r = np.sqrt(2) * np.array([xi.real, xi.imag])
        assert np.linalg.norm(r - state.mean[2:]) > 0.1
        assert np.max(np.abs(state.cov[:2, 2:])) > 0.1
        triple_route = condition(single_gaussian(engine_state(gates, 2)), [1], [xi])[0].entries[0].term
        out = condition_on_generaldyne(state, GeneralDyne.heterodyne([1]), r)
        assert np.max(np.abs(out.cov - triple_route.cov)) < 1e-10
        assert np.max(np.abs(out.mean - triple_route.mean)) < 1e-10

    def test_two_mode_squeezed_conditioning_vs_oracle(self):
        r = 0.5
        gates = [
            BeamSplitter(0, 1, np.pi / 4, 0.0),
            Squeeze(0, r, 0.0),
            Squeeze(1, -r, 0.0),
            BeamSplitter(0, 1, -np.pi / 4, 0.0),
        ]
        state = apply_symplectic(GaussianMixed.vacuum(2), program_symplectic(gates, 2)[0])
        cond = condition_on_generaldyne(state, GeneralDyne.heterodyne([1]), np.zeros(2))
        # strictly below the thermal reduction
        thermal = np.cosh(2 * r) * np.eye(2)
        assert np.all(np.linalg.eigvalsh(thermal - cond.cov) > 0)
        # oracle conditional state, cutoff 40
        fv = fock.oracle_state(gates, 2, cutoff=40)
        fv_cond = fock.condition_on_coherent(fv, 1, 0.0)
        nsq = fv_cond.norm_squared()
        for alpha in (0.0, 0.4 + 0.2j, -0.6j):
            probe = GaussianPure.coherent([alpha])
            engine_val = fidelity_pure(cond, probe)
            oracle_val = abs(fock.coherent_amplitude(fv_cond, [alpha])) ** 2 / nsq
            assert abs(engine_val - oracle_val) < 1e-8

    def test_singular_measurement_flagged(self):
        # 45-degree-rotated extreme squeezing defeats diagonal equilibration,
        # so the conditioning solve must refuse rather than return garbage
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rot = np.array([[c, -s], [s, c]])
        cov_m = rot @ np.diag([1e-20, 1e20]) @ rot.T
        with pytest.raises(IllConditioned):
            condition_on_generaldyne(
                GaussianMixed.vacuum(2), GeneralDyne(cov_m, (1,)), np.zeros(2)
            )


class TestFidelity:
    def test_vacuum_self(self):
        assert fidelity_pure(GaussianMixed.vacuum(1), GaussianPure.vacuum(1)) == pytest.approx(1.0)

    def test_vacuum_vs_coherent(self):
        for alpha in (0.5, 1.0, 1.5 - 0.5j):
            coh = GaussianPure.coherent([alpha])
            val = fidelity_pure(GaussianMixed.vacuum(1), coh)
            assert abs(val - np.exp(-abs(alpha) ** 2)) < 1e-12

    def test_optimal_seed_fock_projection(self):
        # |<1|a*, xi*>|^2 from the oracle equals the published optimum
        gates = [Squeeze(0, np.log(np.sqrt(3))), Displace(0, np.sqrt(2 / 3))]
        fv = fock.oracle_state(gates, 1, cutoff=60)
        assert abs(abs(fv.amplitudes[1]) ** 2 - 0.47789) < 1e-4

    def test_magnitude_matches_overlap(self, rng):
        from conftest import random_pure_program
        from gsim.phase import overlap

        for _ in range(20):
            g1 = engine_state(random_pure_program(1, rng), 1)
            g2 = engine_state(random_pure_program(1, rng), 1)
            f = fidelity_pure(g1.as_mixed(), g2)
            assert abs(abs(overlap(g1, g2)) ** 2 - f) < 1e-10


def test_admissibility_rejects_bad_covariance():
    with pytest.raises(ValueError):
        GaussianMixed(0.5 * np.eye(2), np.zeros(2))
    check_admissible(np.eye(2))


def test_pure_state_requires_pure_covariance():
    with pytest.raises(ValueError):
        GaussianPure(2 * np.eye(2), np.zeros(2), 1.0)


@pytest.mark.parametrize("r", range(3, 11))
def test_squeezed_moments_round_trip_through_the_checks(r):
    # the moments of D(0.3 + 0.2i) S(r, 1.3)|0> carry rounding of order eps ||sigma||^2
    # in sigma Omega sigma^T and eps ||sigma|| in the eigenvalues of sigma + i Omega
    g = engine_state([Squeeze(0, float(r), 1.3), Displace(0, 0.3 + 0.2j)], 1)
    back = GaussianPure(g.cov, g.mean, g.ref_overlap).bargmann
    assert np.max(np.abs(back.a - g.bargmann.a)) <= 1e-15
    assert np.max(np.abs(back.b - g.bargmann.b)) <= 1e-12 * np.max(np.abs(g.bargmann.b))
    assert abs(back.log_c - g.bargmann.log_c) <= 1e-12


def test_mixed_moments_stay_rejected_at_any_squeezing():
    with pytest.raises(ValueError, match="not pure"):
        GaussianPure(1.01 * np.eye(2), np.zeros(2), 1.0)
    # a 1% thermal state squeezed to r = 8: sigma Omega sigma^T - Omega = 0.0201 Omega,
    # far above the rounding of the product of diag(e^-16, e^16)
    s, _ = gate_symplectic(Squeeze(0, 8.0), 1)
    with pytest.raises(ValueError, match="not pure"):
        GaussianPure(1.01 * s @ s.T, np.zeros(2), 1.0)
    # rotated squeezes to r = 8: noise 1e-3 leaves a residual 1e-3 * 2 cosh 16, and the
    # 1% thermal state one of 0.0201, about 1.2 times the rounding bound of the entries
    # (~e^32 eps), the least impurity that such moments can carry
    s, _ = gate_symplectic(Squeeze(0, 8.0, 1.3), 1)
    for cov in (s @ s.T + 0.1 * np.eye(2), s @ s.T + 1e-3 * np.eye(2), 1.01 * s @ s.T):
        with pytest.raises(ValueError, match="not pure"):
            GaussianPure(cov, np.zeros(2), 1.0)


def test_ref_overlap_magnitude_validated():
    with pytest.raises(ValueError):
        GaussianPure(np.eye(2), np.zeros(2), 0.5)


def test_underflowed_ref_overlap_takes_the_closed_form_modulus():
    # <0|alpha> = e^{-|alpha|^2/2} is 0 in double precision at |alpha| = 40; the
    # moments fix the modulus, and the phase of 0 is 0, that of <0|alpha> here
    alpha = 40.0 * np.exp(0.3j)
    g = GaussianPure(np.eye(2), np.sqrt(2) * np.array([alpha.real, alpha.imag]), 0.0)
    assert g.bargmann.log_c == pytest.approx(-800.0, rel=1e-12)
    assert abs(stellar.coherent_amplitude(g.bargmann, [alpha]) - 1.0) < 1e-10


def test_from_triple_checks_its_normalisation(rng):
    for n in (1, 2):
        t = engine_state(random_pure_program(n, rng, 1.0, 0.8), n).bargmann
        with pytest.raises(InvariantViolation, match="ref_overlap modulus disagrees"):
            GaussianPure.from_triple(stellar.StellarParams(t.a, t.b, t.log_c + np.log(2.0)))
    # |A| = 1, where tanh r rounds to 1 (r >= 19): a numerical failure, not a validation error
    with pytest.raises(InvariantViolation, match="not normalisable"):
        GaussianPure.from_triple(stellar.StellarParams([[-1.0]], [0.0], 0.0))


@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("r", range(10, 19))
def test_strongly_squeezed_terms_pass_the_normalisation_check(r, theta):
    # squeezed vacuum: A = -tanh r e^{i theta} and <0|S> = 1/sqrt(cosh r);
    # a beamsplitter spreads A as U diag(A, 0) U^T and keeps <00|
    from gsim.gates import beamsplitter_unitary

    a1 = -np.tanh(r) * np.exp(1j * theta)
    g = engine_state([Squeeze(0, r, theta)], 1)
    assert abs(g.ref_overlap * np.sqrt(np.cosh(r)) - 1) <= 1e-14
    assert abs(g.bargmann.a[0, 0] - a1) <= 1e-15
    u = beamsplitter_unitary(0.7, 0.3)
    g2 = engine_state([Squeeze(0, r, theta), BeamSplitter(0, 1, 0.7, 0.3)], 2)
    assert abs(g2.ref_overlap * np.sqrt(np.cosh(r)) - 1) <= 1e-14
    assert np.max(np.abs(g2.bargmann.a - a1 * np.outer(u[:, 0], u[:, 0]))) <= 1e-15


@pytest.mark.parametrize("r", [19.0, 25.0])
def test_squeezing_past_double_precision_is_not_normalisable(r):
    # tanh r rounds to 1 from r = 19 on
    for gates, n in (([Squeeze(0, r, 1.0)], 1), ([Squeeze(0, r), BeamSplitter(0, 1, 0.7, 0.3)], 2)):
        with pytest.raises(InvariantViolation, match="not normalisable"):
            engine_state(gates, n)


def test_vacuum_and_coherent_triples_match_their_moments():
    alpha = np.array([0.7 + 0.3j, -1.1j])
    mean = np.sqrt(2) * np.column_stack([alpha.real, alpha.imag]).ravel()
    for g, cov, mu in (
        (GaussianPure.vacuum(2), np.eye(4), np.zeros(4)),
        (GaussianPure.coherent(alpha), np.eye(4), mean),
    ):
        a, b, log_mag = stellar.pure_state_params(cov, mu)
        t = g.bargmann
        assert np.max(np.abs(t.a - a)) <= 1e-12
        assert np.max(np.abs(t.b - b)) <= 1e-12
        assert abs(t.c - np.exp(log_mag)) <= 1e-12


def test_gate_mode_bounds_enforced():
    from gsim.gates import gate_symplectic
    from gsim import stellar

    with pytest.raises(ValueError):
        gate_symplectic(Displace(-1, 0.5), 2)
    with pytest.raises(ValueError):
        gate_symplectic(Squeeze(2, 0.3), 2)
    with pytest.raises(ValueError):
        stellar.gate_params(BeamSplitter(0, 0, 0.3), 2)
