import itertools
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsim import apps, fock, stellar
from gsim.gates import BeamSplitter, Displace, Squeeze


def test_reference_params_reproduce_published_value():
    val = apps.two_mode_fock11_fidelity(apps.TWO_MODE_REFERENCE_PARAMS)
    assert abs(val - apps.TWO_MODE_REFERENCE_FIDELITY) < 1e-3


def test_reference_params_against_oracle():
    a1, a2, r1, th1, r2, th2, phi, xi = apps.TWO_MODE_REFERENCE_PARAMS
    gates = [
        Displace(0, a1),
        Displace(1, a2),
        Squeeze(0, r1, th1),
        Squeeze(1, r2, th2),
        BeamSplitter(0, 1, xi / 2.0, -phi),
    ]
    fv = fock.oracle_state(gates, 2, cutoff=50)
    assert abs(abs(fv.amplitudes[1, 1]) ** 2 - 0.25) < 1e-3


def _engine_fock11_fidelity(p):
    """|<1,1|psi>|^2 of the engine's two-mode ket of each point of p (P, 8): both
    displacements and squeezers, then the beamsplitter, gate by gate on the vacuum."""
    ket = stellar.vacuum(2, len(p))
    for gate in (
        Displace(0, p[:, 0]),
        Displace(1, p[:, 1]),
        Squeeze(0, p[:, 2], p[:, 3]),
        Squeeze(1, p[:, 4], p[:, 5]),
        BeamSplitter(0, 1, p[:, 7] / 2.0, -p[:, 6]),
    ):
        ket = stellar.apply_gate(gate, ket, 2)
    # the modulus of each summand of <1,1|psi> = c (b1 b2 + A12), for the rounding bound
    scale = (np.abs(ket.c) * (np.abs(ket.b[:, 0] * ket.b[:, 1]) + np.abs(ket.a[:, 0, 1]))) ** 2
    return np.abs(stellar.fock11_amplitude(ket)) ** 2, scale


def _two_mode_points(rng, count):
    lo, hi = np.array(apps.OptimizerConfig.two_mode().bounds).T
    return lo + (hi - lo) * rng.uniform(size=(count, 8))


def _corners(cfg):
    """Every corner of the box of cfg.bounds: the clipped optimizer lands on the
    bounds, where a uniform draw never does."""
    return np.array(list(itertools.product(*cfg.bounds)))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_objective_is_the_engine_two_mode_ket(seed):
    # 200 points in the optimizer's bounds and the 256 corners of the box: to
    # 1e-14 relative to the squared sum of the moduli of the amplitude's two
    # summands, which is the fidelity itself where they do not cancel (40000
    # points here: at most 2.5e-15)
    cfg = apps.OptimizerConfig.two_mode()
    p = np.concatenate([_two_mode_points(np.random.default_rng(seed), 200), _corners(cfg)])
    want, scale = _engine_fock11_fidelity(p)
    assert np.all(np.abs(apps.two_mode_fock11_fidelity(p) - want) <= 1e-14 * scale)


def _mp_fock11_fidelity(x):
    """|<1,1|U (psi1 (x) psi2)>|^2 at 50 digits from the complex form
    c1 c2 ((U b)_0 (U b)_1 + sum_k U_0k U_1k A_k), and the squared sum of the
    moduli of its two summands"""
    with mpmath.workdps(50):
        a1, a2, r1, th1, r2, th2, phi, xi = (mpmath.mpf(float(v)) for v in x)
        c, s = mpmath.cos(xi / 2), mpmath.sin(xi / 2) * mpmath.expj(-phi)
        u = [[c, s], [-mpmath.conj(s), c]]
        b = [a1 / mpmath.cosh(r1), a2 / mpmath.cosh(r2)]
        big_a = [-mpmath.tanh(r1) * mpmath.expj(th1), -mpmath.tanh(r2) * mpmath.expj(th2)]
        log_c = [
            -(a**2) / 2 - mpmath.log(mpmath.cosh(r)) / 2 - mpmath.conj(w) * a**2 / 2
            for a, r, w in zip((a1, a2), (r1, r2), big_a)
        ]
        cc = mpmath.exp(log_c[0] + log_c[1])
        ub = [u[0][0] * b[0] + u[0][1] * b[1], u[1][0] * b[0] + u[1][1] * b[1]]
        first = cc * ub[0] * ub[1]
        second = cc * (u[0][0] * u[1][0] * big_a[0] + u[0][1] * u[1][1] * big_a[1])
        return float(abs(first + second) ** 2), float((abs(first) + abs(second)) ** 2)


def test_objective_is_the_complex_form_at_50_digits():
    # 200 seeded points in the optimizer's bounds and the 256 corners of the box,
    # against a reference with no gate engine in it: within 16 u of the squared
    # sum of the summands' moduli, the scale of the float form's rounding (20000
    # points here: at most 12 u)
    cfg = apps.OptimizerConfig.two_mode()
    p = np.concatenate([_two_mode_points(np.random.default_rng(46), 200), _corners(cfg)])
    want, scale = np.array([_mp_fock11_fidelity(x) for x in p]).T
    assert np.all(np.abs(apps.two_mode_fock11_fidelity(p) - want) <= 16 * np.finfo(float).eps * scale)


def test_objective_matches_the_fock_oracle():
    # 10 points in the optimizer's bounds (r up to 1.6): the oracle's value is
    # converged where two cutoffs agree to 1e-12
    for x in _two_mode_points(np.random.default_rng(27), 10):
        gates = [Displace(0, x[0]), Displace(1, x[1]), Squeeze(0, x[2], x[3]), Squeeze(1, x[4], x[5])]
        gates.append(BeamSplitter(0, 1, x[7] / 2.0, -x[6]))
        low, high = (abs(fock.oracle_state(gates, 2, cutoff=cut).amplitudes[1, 1]) ** 2 for cut in (170, 200))
        assert abs(low - high) <= 1e-12
        assert abs(apps.two_mode_fock11_fidelity(x) - high) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_objective_is_the_engine_single_mode_ket(seed):
    # 200 points in the optimizer's bounds and the 4 corners of the box, against
    # <1|psi> of the engine's D(a) S(r)|0>: one summand, so to 1e-14 relative to
    # the fidelity itself, and exactly 0 at a = 0
    cfg = apps.OptimizerConfig.single_mode()
    lo, hi = np.array(cfg.bounds).T
    p = np.concatenate([lo + (hi - lo) * np.random.default_rng(seed).uniform(size=(200, 2)), _corners(cfg)])
    ket = stellar.apply_gate(Squeeze(0, p[:, 1]), stellar.vacuum(1, len(p)), 1)
    want = np.abs(stellar.fock_amplitude(stellar.apply_gate(Displace(0, p[:, 0]), ket, 1), 1)) ** 2
    assert np.all(np.abs(apps.single_mode_fock1_fidelity(p) - want) <= 1e-14 * want)


def test_objectives_reach_no_engine_code():
    # both objectives are closed forms of their parameters: no frame of stellar runs
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    p2 = _two_mode_points(np.random.default_rng(3), 8)
    sys.setprofile(profile)
    try:
        apps.two_mode_fock11_fidelity(p2)
        apps.single_mode_fock1_fidelity(p2[:, :2])
    finally:
        sys.setprofile(None)
    assert stellar.__file__ not in seen


def test_single_mode_objective_optimum():
    val = apps.single_mode_fock1_fidelity([np.sqrt(2.0 / 3.0), np.log(np.sqrt(3.0))])
    assert abs(val - 3 * np.sqrt(3) / (4 * np.e)) < 1e-12


def test_optimizer_deterministic():
    cfg = apps.OptimizerConfig.single_mode(restarts=6, budget=2400, seed=12)
    res1 = apps.optimize_fidelity(cfg, objective=apps.single_mode_fock1_fidelity)
    res1b = apps.optimize_fidelity(cfg, objective=apps.single_mode_fock1_fidelity)
    assert res1.best_fidelity == res1b.best_fidelity
    assert res1.best_params == res1b.best_params


def test_objectives_map_a_stack_of_points_to_a_stack_of_values(rng):
    for objective, dim in ((apps.two_mode_fock11_fidelity, 8), (apps.single_mode_fock1_fidelity, 2)):
        pts = rng.uniform(-1.0, 1.0, size=(3, 4, dim))
        got = objective(pts)
        assert got.shape == (3, 4)
        assert all(got[i, j] == objective(list(pts[i, j])) for i in range(3) for j in range(4))
        assert np.ndim(objective(pts[0, 0])) == 0


@pytest.mark.parametrize("seed", range(10))
def test_lock_step_nelder_mead_is_scipys(seed):
    # one restart against scipy's Nelder-Mead on the per-point objective: two-mode
    # at the CLI's per-restart budget (20000 // 32) and at 53, where steps end with
    # one evaluation left, single-mode run to convergence
    from scipy.optimize import minimize

    from gsim.rng import stream

    for make, objective, budget in (
        (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity, 625),
        (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity, 53),
        (apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity, 2000),
    ):
        cfg = make(restarts=1, budget=budget, seed=seed)
        lo, hi = np.array(cfg.bounds).T
        ref = minimize(
            lambda x: -objective(np.clip(x, lo, hi)),
            lo + (hi - lo) * stream(seed, 0).random(len(lo)),
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": apps.NELDER_MEAD_TOL, "fatol": apps.NELDER_MEAD_TOL},
        )
        res = apps.optimize_fidelity(cfg, objective=objective)
        assert res.best_params == tuple(float(v) for v in np.clip(ref.x, lo, hi))
        assert (res.best_fidelity, res.evaluations) == (-ref.fun, ref.nfev)


@pytest.mark.parametrize("seed", range(3))
def test_small_budgets_are_scipys_maxfev(seed):
    # a budget below 50 per restart is each restart's scipy maxfev, down to the
    # initial simplex alone (len(bounds) + 1 evaluations)
    from scipy.optimize import minimize

    from gsim.rng import stream

    for make, objective, budgets in (
        (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity, (9, 10, 11, 30)),
        (apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity, (3, 4, 5, 17)),
    ):
        for budget in budgets:
            cfg = make(restarts=1, budget=budget, seed=seed)
            lo, hi = np.array(cfg.bounds).T
            ref = minimize(
                lambda x: -objective(np.clip(x, lo, hi)),
                lo + (hi - lo) * stream(seed, 0).random(len(lo)),
                method="Nelder-Mead",
                options={"maxfev": budget, "xatol": apps.NELDER_MEAD_TOL, "fatol": apps.NELDER_MEAD_TOL},
            )
            res = apps.optimize_fidelity(cfg, objective=objective)
            assert res.best_params == tuple(float(v) for v in np.clip(ref.x, lo, hi))
            assert (res.best_fidelity, res.evaluations) == (-ref.fun, ref.nfev)


@pytest.mark.parametrize("restarts", [1, 4, 32])
def test_budget_caps_the_evaluations(restarts):
    # restarts x (len(bounds) + 1) is the least budget; from there on budget caps
    # the evaluations of every restart together
    for make, objective in (
        (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity),
        (apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity),
    ):
        least = restarts * (len(make().bounds) + 1)
        for budget in (least, least + restarts - 1, 2 * least + 1, 40 * restarts):
            res = apps.optimize_fidelity(make(restarts=restarts, budget=budget, seed=5), objective=objective)
            assert least <= res.evaluations <= budget
        with pytest.raises(ValueError, match=rf"^budget must be at least .* = {least}, got {least - 1}$"):
            make(restarts=restarts, budget=least - 1)


@pytest.mark.parametrize("mode", ["two", "single"])
def test_restarts_in_lock_step_are_the_restarts_run_alone(mode, monkeypatch):
    # 32 restarts in one run against each run alone (its stream index moved to 0);
    # single-mode restarts stop at different steps on the xatol/fatol rule
    make, objective = {
        "two": (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity),
        "single": (apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity),
    }[mode]
    together = apps.optimize_fidelity(make(restarts=32, budget=32 * 200, seed=4), objective=objective)
    real_stream, alone = apps.stream, []
    for k in range(32):
        monkeypatch.setattr(apps, "stream", lambda seed, j, k=k: real_stream(seed, j + k))
        alone.append(apps.optimize_fidelity(make(restarts=1, budget=200, seed=4), objective=objective))
    best = max(alone, key=lambda r: r.best_fidelity)  # the first of equal maxima, as optimize_fidelity takes
    assert (together.best_params, together.best_fidelity) == (best.best_params, best.best_fidelity)
    assert together.evaluations == sum(r.evaluations for r in alone)
    if mode == "single":
        assert len({r.evaluations for r in alone}) > 1


def _scipy_nelder_mead(cfg, objective, callback=None):
    """scipy's Nelder-Mead from restart 0's start point, on -objective of the
    clipped point, with the per-restart budget as maxfev"""
    from scipy.optimize import minimize

    from gsim.rng import stream

    lo, hi = np.array(cfg.bounds).T
    return minimize(
        lambda x: -objective(np.clip(x, lo, hi)),
        lo + (hi - lo) * stream(cfg.seed, 0).random(len(lo)),
        method="Nelder-Mead",
        callback=callback,
        options={"maxfev": cfg.budget, "xatol": apps.NELDER_MEAD_TOL, "fatol": apps.NELDER_MEAD_TOL},
    )


@pytest.mark.parametrize("seed", range(10))
def test_one_objective_call_per_step(seed):
    # one restart: the initial simplex, then one call on the (1, 4, n) stack of
    # candidates per scipy step, and one on the (1, n, n) shrunk points on, and
    # only on, a step where scipy shrinks.  scipy's nit counts its steps plus
    # one, unless the last ran out of budget; a shrink it starts with no
    # evaluation left moves a point and evaluates none
    for make, objective in (
        (apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity),
        (apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity),
    ):
        for budget in (53, 300, 625):
            cfg = make(restarts=1, budget=budget, seed=seed)
            n = len(cfg.bounds)
            shapes, done = [], [0]

            def counted(p):
                shapes.append(np.shape(p))
                return objective(p)

            def scalar(p):
                done[0] += 1
                return objective(p)

            apps.optimize_fidelity(cfg, objective=counted)
            assert shapes[0] == (1, n + 1, n) and set(shapes[1:]) <= {(1, 4, n), (1, n, n)}
            step_calls = shapes.count((1, 4, n))
            # the step, counted from 1, after which each shrink call comes
            shrink_after = [shapes[:i].count((1, 4, n)) for i, s in enumerate(shapes) if s == (1, n, n)]
            assert len(set(shrink_after)) == len(shrink_after) and all(k >= 1 for k in shrink_after)

            marks = []
            ref = _scipy_nelder_mead(cfg, scalar, callback=lambda res: marks.append(done[0]))
            per_step = np.diff([n + 1] + marks)
            assert step_calls == len(per_step) and step_calls in (ref.nit, ref.nit - 1)
            shrunk = {k + 1 for k, e in enumerate(per_step) if e > 2}
            extra = set(shrink_after) - shrunk
            assert shrunk <= set(shrink_after)
            assert not extra or (extra == {step_calls} and per_step[-1] == 2 and ref.nfev == budget)


@pytest.mark.parametrize("seed", range(10))
def test_ties_are_scipys(seed):
    # the two-mode objective rounded to 1, 2 and 3 decimals has plateaus, where a
    # candidate ties a vertex or another candidate (f_r = f_n, f_c = f_r, ...):
    # the rules' < and <= decide, bit for bit as in scipy
    for decimals in (1, 2, 3):

        def objective(p, decimals=decimals):
            return np.round(apps.two_mode_fock11_fidelity(p), decimals)

        for budget in (53, 300):
            cfg = apps.OptimizerConfig.two_mode(restarts=1, budget=budget, seed=seed)
            seen = []
            ref = _scipy_nelder_mead(cfg, lambda p: seen.append(objective(p)) or seen[-1])
            assert len(set(seen)) < len(seen)
            res = apps.optimize_fidelity(cfg, objective=objective)
            lo, hi = np.array(cfg.bounds).T
            assert res.best_params == tuple(float(v) for v in np.clip(ref.x, lo, hi))
            assert (res.best_fidelity, res.evaluations) == (-ref.fun, ref.nfev)


def test_optimizer_leaves_scipy_optimize_unloaded():
    code = (
        "import sys; from gsim import cli; "
        "code = cli.main(['optimize-fidelity', '--restarts', '2', '--budget', '200']); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(apps.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


def test_report_table_rows():
    rows = apps.report_table([0.1, 0.07])
    assert rows[0].published_extent == 7.496
    assert rows[0].breeding_bound == 4
    assert rows[1].published_extent is None
    assert rows[1].breeding_bound >= 1


def test_published_extents_are_the_one_sided_orthogonal_sum():
    # (sum_{t>=0} e^{-pi d^2 t^2})^2 / sum_{t>=0} e^{-2 pi d^2 t^2}, to the printed digits
    t = np.arange(4000)
    for delta, (extent, _) in apps.GRID_EXTENT_TABLE.items():
        c = np.exp(-np.pi * delta**2 * t**2)
        assert round(c.sum() ** 2 / np.sum(c**2), 3) == extent


def test_one_sided_extent_at_any_delta():
    rows = apps.report_table(list(apps.GRID_EXTENT_TABLE) + [0.07])
    for row in rows[:-1]:
        assert abs(row.one_sided_extent - row.published_extent) <= 1e-3
    # (sum_{t>=0} c_t)^2 / sum_{t>=0} c_t^2 lies between half and all of the two-sided sum
    assert rows[-1].published_extent is None
    assert rows[-1].naive_extent / 2 < rows[-1].one_sided_extent < rows[-1].naive_extent


@pytest.mark.parametrize("mode", ["two", "single"])
@pytest.mark.parametrize("field", ["restarts", "budget"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True])
def test_optimizer_counts_must_be_integers(mode, field, value):
    # a NaN or infinite budget never met the budget stop, so only xatol/fatol could
    # end the run; 2.5 and True passed the "at least 1" check and failed later
    make = {"two": apps.OptimizerConfig.two_mode, "single": apps.OptimizerConfig.single_mode}[mode]
    kw = {"restarts": 1, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        make(**kw)


@pytest.mark.parametrize("threads", [0, -2])
def test_optimizer_thread_count_below_one_is_rejected(threads):
    # the field no longer sizes a pool, but a count below one stays an error
    with pytest.raises(ValueError, match="threads must be at least 1"):
        apps.OptimizerConfig.two_mode(threads=threads)
