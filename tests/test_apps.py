import numpy as np
import pytest

from gsim import apps, fock
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


def test_single_mode_objective_optimum():
    val = apps.single_mode_fock1_fidelity([np.sqrt(2.0 / 3.0), np.log(np.sqrt(3.0))])
    assert abs(val - 3 * np.sqrt(3) / (4 * np.e)) < 1e-12


def test_optimizer_deterministic_and_thread_invariant():
    cfg1 = apps.OptimizerConfig.single_mode(restarts=6, budget=2400, seed=12)
    cfg2 = apps.OptimizerConfig.single_mode(restarts=6, budget=2400, seed=12, threads=2)
    res1 = apps.optimize_fidelity(cfg1, objective=apps.single_mode_fock1_fidelity)
    res1b = apps.optimize_fidelity(cfg1, objective=apps.single_mode_fock1_fidelity)
    res2 = apps.optimize_fidelity(cfg2, objective=apps.single_mode_fock1_fidelity)
    assert res1.best_fidelity == res1b.best_fidelity
    assert res1.best_params == res1b.best_params
    assert res1.best_fidelity == res2.best_fidelity


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


def test_optimizer_pool_has_no_more_workers_than_restarts(monkeypatch):
    sizes = []
    real_pool = apps.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(apps, "ThreadPoolExecutor", spy)
    kw = dict(restarts=2, budget=400, seed=5)
    wide = apps.optimize_fidelity(apps.OptimizerConfig.single_mode(threads=64, **kw), objective=apps.single_mode_fock1_fidelity)
    one = apps.optimize_fidelity(apps.OptimizerConfig.single_mode(threads=1, **kw), objective=apps.single_mode_fock1_fidelity)
    assert sizes == [2]
    assert wide == one


@pytest.mark.parametrize("threads", [0, -2])
def test_optimizer_thread_count_below_one_is_rejected(threads):
    # only library callers set the pool size: the CLI runs the optimizer on one thread
    with pytest.raises(ValueError, match="threads must be at least 1"):
        apps.OptimizerConfig.two_mode(threads=threads)
