import numpy as np
import pytest
from scipy.linalg import expm

from gsim import fock
from gsim.exceptions import DimensionMismatch, LeakageError
from gsim.gates import BeamSplitter, Displace, PhaseShift, Squeeze

from conftest import haar_unitary, random_pure_program


def coherent_overlap(a, b):
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


def test_empty_program_is_vacuum():
    fv = fock.oracle_state([], 1, cutoff=20)
    assert fv.amplitudes[0] == 1.0
    assert fv.norm_squared() == pytest.approx(1.0)


def test_displacement_amplitudes():
    fv = fock.oracle_state([Displace(0, 1.0)], 1, cutoff=50)
    from math import factorial

    for k in range(6):
        expected = np.exp(-0.5) / np.sqrt(factorial(k))
        assert abs(fv.amplitudes[k] - expected) < 1e-12
    assert abs(fv.amplitudes[1] - np.exp(-0.5)) < 1e-12


def test_optimal_seed_value():
    gates = [Squeeze(0, np.log(np.sqrt(3))), Displace(0, np.sqrt(2.0 / 3.0))]
    fv = fock.oracle_state(gates, 1, cutoff=60)
    assert abs(abs(fv.amplitudes[1]) ** 2 - 0.47789) < 1e-4


def test_oracle_overlap_trivial_and_coherent():
    v0 = fock.oracle_state([], 1, cutoff=40)
    assert fock.oracle_overlap(v0, v0) == pytest.approx(1.0)
    va = fock.oracle_state([Displace(0, 1.0)], 1, cutoff=40)
    vb = fock.oracle_state([Displace(0, 1j)], 1, cutoff=40)
    assert abs(fock.oracle_overlap(va, vb) - coherent_overlap(1.0, 1j)) < 1e-10


def test_cutoff_convergence():
    gates = [Squeeze(0, 1.0, 0.7), Displace(0, 0.8 - 0.4j)]
    lo = fock.oracle_state(gates, 1, cutoff=120)
    hi = fock.oracle_state(gates, 1, cutoff=240)
    probe = [Displace(0, 0.5 + 0.5j), Squeeze(0, 0.5, -0.3)]
    plo = fock.oracle_state(probe, 1, cutoff=120)
    phi_ = fock.oracle_state(probe, 1, cutoff=240)
    o1 = fock.oracle_overlap(lo, plo)
    o2 = fock.oracle_overlap(hi, phi_)
    assert abs(o1 - o2) < 1e-10


def test_undersized_cutoff_for_squeezing_raises():
    # r = 1 at the single-mode default cutoff parks too much mass at the edge
    with pytest.raises(LeakageError):
        fock.oracle_state([Squeeze(0, 1.0, 0.7)], 1, cutoff=60)


def test_gates_unitary_on_truncated_space(rng):
    fv = fock.oracle_state([], 2, cutoff=25)
    for gate in (
        Displace(0, 0.7 - 0.2j),
        Squeeze(1, 0.6, 1.1),
        PhaseShift(0, 0.9),
        BeamSplitter(0, 1, 0.8, 0.4),
    ):
        fv = fock.apply_gate(fv, gate)
        assert fv.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_against_dense_expm(rng):
    cut = 12
    ad = np.diag(np.sqrt(np.arange(1, cut)), -1)
    a = ad.T.conj()
    eye = np.eye(cut)
    theta, phi = 0.7, 1.2
    gen = theta * (
        np.exp(1j * phi) * np.kron(ad, a) - np.exp(-1j * phi) * np.kron(a, ad)
    )
    dense = expm(gen)
    vec = rng.normal(size=(cut, cut)) + 1j * rng.normal(size=(cut, cut))
    vec /= np.linalg.norm(vec)
    expected = (dense @ vec.reshape(-1)).reshape(cut, cut)
    got = fock.apply_gate(fock.FockVector(vec, cut), BeamSplitter(0, 1, theta, phi))
    assert np.max(np.abs(got.amplitudes - expected)) < 1e-10


def test_mode_unitary_single_photon_columns(rng):
    # U |1_i> = sum_j u_{ji} |1_j> pins the Heisenberg convention
    u = haar_unitary(2, rng)
    for i in range(2):
        amps = np.zeros((8, 8), complex)
        amps[(1, 0) if i == 0 else (0, 1)] = 1.0
        out = fock.apply_mode_unitary(fock.FockVector(amps, 8), u, (0, 1))
        assert abs(out.amplitudes[1, 0] - u[0, i]) < 1e-12
        assert abs(out.amplitudes[0, 1] - u[1, i]) < 1e-12


def test_leakage_error_raised():
    with pytest.raises(LeakageError):
        fock.oracle_state([Displace(0, 6.0)], 1, cutoff=20)


def test_born_and_conditioning_basics():
    fv = fock.oracle_state([Displace(0, 0.6)], 1, cutoff=40)
    val = fock.oracle_born(fv, [0.6])
    assert val == pytest.approx(1 / np.pi)
    two = fock.oracle_state([Displace(0, 0.4), Displace(1, -0.3j)], 2, cutoff=25)
    cond = fock.condition_on_coherent(two, 1, -0.3j)
    assert cond.norm_squared() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        fock.coherent_amplitude(fv, [0.1, 0.2])


def test_oracle_matches_engine_on_random_programs(rng):
    from conftest import engine_state

    for n in (1, 2):
        for _ in range(5):
            gates = random_pure_program(n, rng, alpha_max=1.0, r_max=0.8)
            g = engine_state(gates, n)
            fv = fock.oracle_state(gates, n, cutoff=80 if n == 1 else 60)
            idx = (0,) * n
            assert abs(g.ref_overlap - fv.amplitudes[idx]) < 1e-10


def test_three_mode_engine_vs_oracle(rng):
    # spectator axes exercise the tensor paths the two-mode tests never hit
    from conftest import engine_state
    from gsim import stellar
    from gsim.phase import overlap

    for _ in range(3):
        p1 = random_pure_program(3, rng, alpha_max=0.8, r_max=0.5)
        p2 = random_pure_program(3, rng, alpha_max=0.8, r_max=0.5)
        g1, g2 = engine_state(p1, 3), engine_state(p2, 3)
        f1 = fock.oracle_state(p1, 3, cutoff=32)
        f2 = fock.oracle_state(p2, 3, cutoff=32)
        target = fock.oracle_overlap(f1, f2)
        assert abs(overlap(g1, g2) - target) < 1e-9
        assert abs(stellar.state_overlap(g1.bargmann, g2.bargmann) - target) < 1e-9
        xi = 0.4 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        amp_engine = __import__("gsim.stellar", fromlist=["coherent_amplitude"]).coherent_amplitude(
            g1.bargmann, xi
        )
        assert abs(amp_engine - fock.coherent_amplitude(f1, xi)) < 1e-9
