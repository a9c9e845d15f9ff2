import numpy as np
import pytest

from gsim.gates import factor_two_mode_unitary, is_symplectic, mode_blocks, omega, passive_from_unitary

from conftest import haar_unitary, random_symplectic


def test_omega_properties():
    for n in (1, 2, 3):
        om = omega(n)
        assert np.allclose(om, -om.T)
        assert np.allclose(om @ om, -np.eye(2 * n))


def test_passive_identity_and_phase():
    assert np.allclose(passive_from_unitary(np.eye(1, dtype=complex)), np.eye(2))
    theta = 0.7
    o = passive_from_unitary(np.array([[np.exp(1j * theta)]]))
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(o, rot)
    # coherent mean rotates with the phase
    mean = np.sqrt(2) * np.array([1.0, 0.0])
    rotated = o @ mean
    expected = np.sqrt(2) * np.array([np.cos(theta), np.sin(theta)])
    assert np.allclose(rotated, expected)


def test_passive_is_orthogonal_symplectic(rng):
    for n in (1, 2, 3):
        u = haar_unitary(n, rng)
        o = passive_from_unitary(u)
        assert np.allclose(o @ o.T, np.eye(2 * n), atol=1e-12)
        assert is_symplectic(o)
        m, n_blk, _ = mode_blocks(o, np.zeros(2 * n))  # a passive map's mode blocks are (u, 0)
        assert np.allclose(m, u, atol=1e-15) and not n_blk.any()


def test_passive_rejects_nonunitary():
    with pytest.raises(ValueError):
        passive_from_unitary(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_factor_two_mode_unitary(rng):
    for _ in range(200):
        u = haar_unitary(2, rng)
        chi_l, theta, chi_r = factor_two_mode_unitary(u)
        bs = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        rebuilt = np.diag(np.exp(1j * chi_l)) @ bs @ np.diag(np.exp(1j * chi_r))
        assert np.max(np.abs(rebuilt - u)) < 1e-10
    # degenerate corners
    for u in (np.eye(2, dtype=complex), np.array([[0, 1], [-1, 0]], dtype=complex)):
        chi_l, theta, chi_r = factor_two_mode_unitary(u)
        bs = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        rebuilt = np.diag(np.exp(1j * chi_l)) @ bs @ np.diag(np.exp(1j * chi_r))
        assert np.max(np.abs(rebuilt - u)) < 1e-12


def test_random_symplectic_is_symplectic(rng):
    for n in (1, 2, 4):
        assert is_symplectic(random_symplectic(n, rng))


def test_balanced_unitary_gives_balanced_splitter():
    # balanced 2x2 unitary maps to the 50:50 splitter; single-photon
    # amplitudes through the oracle confirm the embedding convention
    import numpy as np
    from gsim import fock

    u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
    o = passive_from_unitary(u)
    assert is_symplectic(o) and np.allclose(o @ o.T, np.eye(4), atol=1e-12)
    amps = np.zeros((6, 6), complex)
    amps[1, 0] = 1.0
    out = fock.apply_mode_unitary(fock.FockVector(amps, 6), u, (0, 1))
    assert abs(out.amplitudes[1, 0] - u[0, 0]) < 1e-12
    assert abs(out.amplitudes[0, 1] - u[1, 0]) < 1e-12
    assert abs(abs(out.amplitudes[1, 0]) ** 2 - 0.5) < 1e-12


@pytest.mark.parametrize("r", [0.5, 11.0])
def test_is_symplectic_is_bounded_by_its_rounding(r):
    # an exact squeeze passes at any r, and any one entry off by 1e-8 relative fails
    from gsim.gates import Squeeze, program_symplectic

    s, _ = program_symplectic([Squeeze(0, r, 1.3)], 1)
    assert is_symplectic(s)
    for k in np.ndindex(s.shape):
        bad = s.copy()
        bad[k] *= 1 + 1e-8
        assert not is_symplectic(bad), k


def test_strong_squeezers_are_symplectic_to_their_rounding():
    # near its axis a squeeze's cosh r - sinh r cos(theta) cancels to about
    # e^-r but keeps the rounding EPS cosh r: the residual is of order
    # EPS ||S||^2 there, far above EPS (|S||Omega||S|^T)_ij and above 1e-9
    from gsim.gates import BeamSplitter, Squeeze, program_symplectic

    for gates, n in (
        ([Squeeze(0, 10.0, 1e-3)], 1),
        ([Squeeze(0, 10.0, 1e-3), Squeeze(1, 12.0, 2.0), BeamSplitter(0, 1, 0.4, 0.3)], 2),
    ):
        s, _ = program_symplectic(gates, n)
        om = omega(n)
        assert np.max(np.abs(s @ om @ s.T - om)) > 1e-9  # the old absolute tolerance
        assert is_symplectic(s)
