"""Reference values for the correctness gate, computed outside timing.

Every reference goes through a route that the timed call does not take:

* the truncated Fock oracle (``gsim.fock``), built from each state's
  definition, at the first cutoff that passes its leakage check and
  reproduces the value at the cutoff before it;
* otherwise the reference-state triple product (``gsim.phase.overlap``),
  which shares no kernel with the holomorphic (``stellar``) engine that the
  exact Born evaluator uses.

Both are validation-only paths of the package; the benchmark never times them.
"""

import math

import numpy as np

from gsim import fock, gaussian, phase
from gsim.gates import BeamSplitter, Displace, Squeeze, program_symplectic
from gsim.gaussian import GaussianPure

# cutoffs tried in turn until a leak-free one reproduces the value before it
CUTOFFS_1MODE = (60, 120)
CUTOFFS_2MODE = (40, 80, 120, 160)
CUTOFFS_FIDELITY = (40, 80, 160, 320)
# The leakage check alone can pass at a cutoff whose truncation error is
# still far above the gate tolerances (edge mass 2e-11 of a squeezed
# two-mode state came with a 1e-5 relative error in |<1,1|psi>|^2), so a
# value is taken only where it reproduces the one at the cutoff before it.
CONVERGED_RTOL = 1e-10
# pairs whose squared overlap is below this contribute nothing measurable
NEGLIGIBLE_FIDELITY = 1e-30


class NoReference(RuntimeError):
    """No validation route covers this input."""


# ---------------------------------------------------------------------------
# Fock-oracle state construction from definitions


def _prepared(gates, n: int, cutoff: int) -> np.ndarray:
    state = fock.vacuum_vector(n, cutoff)
    for g in gates:
        state = fock.apply_gate(state, g)
    return state.amplitudes


def _leaks(vec: fock.FockVector) -> bool:
    norm = vec.norm_squared()
    return not norm > 0 or vec.edge_mass() > fock.LEAK_TOL * norm


def _ring_amps(big_n: int, cutoff: int) -> np.ndarray:
    """Single-photon ring: sum_m e^{-i pi m/N} R(pi m/N)|seed> / (2N <1|seed>)."""
    alpha, r = math.sqrt(2.0 / 3.0), math.log(math.sqrt(3.0))
    seed = _prepared([Squeeze(0, r), Displace(0, alpha)], 1, cutoff)
    levels = np.arange(cutoff)
    total = np.zeros(cutoff, dtype=complex)
    for m in range(2 * big_n):
        theta = math.pi * m / big_n
        total += np.exp(-1j * theta) * np.exp(1j * theta * levels) * seed
    return total / (2 * big_n * seed[1])


def _single_mode_amps(spec: dict, cutoff: int) -> np.ndarray:
    """Fock amplitudes of a one-mode library state from its definition."""
    kind = spec["kind"]
    if kind == "coherent":
        return fock.coherent_column(spec["alpha"], cutoff)
    if kind == "cat":
        return fock.coherent_column(spec["alpha"], cutoff) + spec["parity"] * fock.coherent_column(
            -spec["alpha"], cutoff
        )
    if kind == "squeezed":
        gates = [Squeeze(0, spec["r"], spec.get("theta", 0.0)), Displace(0, spec["alpha"])]
        return _prepared(gates, 1, cutoff)
    if kind == "ring":
        return _ring_amps(spec["N"], cutoff)
    if kind == "gkp":
        d, mu, kappa, delta, s_max = (spec[k] for k in ("d", "mu", "kappa", "delta", "s_max"))
        alpha_d = math.sqrt(2 * math.pi / d)
        total = np.zeros(cutoff, dtype=complex)
        for s in range(-s_max, s_max + 1):
            env = math.exp(-0.5 * kappa**2 * alpha_d**2 * (d * s + mu) ** 2)
            total += env * _prepared(
                [Squeeze(0, -math.log(delta)), Displace(0, alpha_d * (d * s + mu))], 1, cutoff
            )
        return total
    if kind == "grid":
        delta, t_max = spec["delta"], spec["t_max"]
        total = np.zeros(cutoff, dtype=complex)
        for t in range(-t_max, t_max + 1):
            env = math.exp(-math.pi * delta**2 * t**2)
            total += env * _prepared(
                [Squeeze(0, -math.log(delta)), Displace(0, t * math.sqrt(math.pi / 2))], 1, cutoff
            )
        return total
    raise NoReference(f"no Fock definition for {kind!r}")


def fock_state(spec: dict, gates, modes: int, cutoff: int) -> fock.FockVector:
    """Library state (tensored with vacua up to ``modes``), then ``gates``."""
    amps = _single_mode_amps(spec, cutoff)
    for _ in range(modes - 1):
        amps = np.multiply.outer(amps, np.eye(cutoff)[0])
    vec = fock.FockVector(amps.astype(complex), cutoff)
    for g in gates:
        vec = fock.apply_gate(vec, g)
    return vec


def converged(vector_at, value_of, cutoffs) -> np.ndarray:
    """``value_of(vector_at(cutoff))`` at the first cutoff whose vector passes
    the leakage check and whose value agrees with the one at the cutoff
    before it to CONVERGED_RTOL."""
    prev = None
    for cutoff in cutoffs:
        vec = vector_at(cutoff)
        value = np.asarray(value_of(vec), dtype=float)
        if prev is not None and not _leaks(vec) and np.all(np.abs(value - prev) <= CONVERGED_RTOL * np.abs(value) + 1e-15):
            return value
        prev = value
    raise NoReference(f"no leak-free cutoff in {cutoffs} reproduces the value at the one before it")


# ---------------------------------------------------------------------------
# reference-state triple product


def _tp_overlap(g1: GaussianPure, g2: GaussianPure) -> complex:
    if gaussian.fidelity_pure(g1.as_mixed(), g2) < NEGLIGIBLE_FIDELITY:
        return 0.0 + 0.0j
    return phase.overlap(g1, g2)


def triple_product_norm(sup) -> float:
    """sum_ij c_i* c_j <G_i|G_j>, diagonal pinned to 1 (terms are normalized)."""
    terms, c = sup.terms(), sup.coefficients()
    total = float(np.sum(np.abs(c) ** 2))
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            total += 2.0 * (np.conj(c[i]) * c[j] * _tp_overlap(terms[i], terms[j])).real
    return total


def _pulled_back_probe(gates, xi) -> GaussianPure:
    """U^dagger |xi> for a one-mode gate chain U, up to a global phase.

    The phase is irrelevant: it multiplies every term amplitude alike and so
    drops out of |<xi|U|psi>|.
    """
    s, d = program_symplectic(gates, 1)
    s_inv = np.linalg.inv(s)
    mean = s_inv @ (math.sqrt(2) * np.array([xi.real, xi.imag]) - d)
    cov = s_inv @ s_inv.T
    total = cov + np.eye(2)
    vac_fid = 2 * np.exp(-float(mean @ np.linalg.solve(total, mean))) / math.sqrt(np.linalg.det(total))
    return GaussianPure(cov, mean, math.sqrt(vac_fid))


def triple_product_born(sup, gates, outcomes, norm: float) -> list:
    """|<xi|U|psi>|^2 / (pi ||psi||^2) for one-mode ``sup`` and chain ``gates``."""
    terms, c = sup.terms(), sup.coefficients()
    out = []
    for xi in outcomes:
        probe = _pulled_back_probe(gates, xi)
        amp = sum(ck * _tp_overlap(probe, t) for ck, t in zip(c, terms))
        out.append(abs(amp) ** 2 / (math.pi * norm))
    return out


# ---------------------------------------------------------------------------
# composite references used by the workloads


def born_after_chain(spec: dict, sup, gates, outcomes, tp_norm_cache: dict) -> tuple:
    """Reference densities for exact_born(evolve(sup, chain), xi); (values, route)."""
    try:
        values = converged(
            lambda cutoff: fock_state(spec, gates, 1, cutoff),
            lambda vec: [fock.oracle_born(vec, [xi]) for xi in outcomes],
            CUTOFFS_1MODE,
        )
        return list(values), "fock"
    except NoReference:
        pass
    key = id(sup)
    if key not in tp_norm_cache:
        tp_norm_cache[key] = triple_product_norm(sup)
    return triple_product_born(sup, gates, outcomes, tp_norm_cache[key]), "triple_product"


def program_born(spec: dict, gates, cond_mode: int, cond_xi: complex, outcome) -> float:
    """Fock-oracle density for a two-mode program: gates, heterodyne condition, Born."""
    return float(converged(
        lambda cutoff: fock_state(spec, gates, 2, cutoff),
        lambda vec: fock.oracle_born(fock.condition_on_coherent(vec, cond_mode, cond_xi), outcome),
        CUTOFFS_2MODE,
    ))


def two_mode_fidelity(params) -> float:
    """|<1,1|G(params)>|^2 for the optimizer's two-mode family, on the Fock oracle."""
    a1, a2, r1, th1, r2, th2, phi, xi = (float(p) for p in params)
    gates = [
        Displace(0, a1),
        Displace(1, a2),
        Squeeze(0, r1, th1),
        Squeeze(1, r2, th2),
        BeamSplitter(0, 1, xi / 2.0, -phi),
    ]
    return float(converged(
        lambda cutoff: fock.FockVector(_prepared(gates, 2, cutoff), cutoff),
        lambda vec: abs(vec.amplitudes[1, 1]) ** 2,
        CUTOFFS_FIDELITY,
    ))

