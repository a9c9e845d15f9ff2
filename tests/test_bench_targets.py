"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracing.py`` names gsim functions by module and attribute path;
a refactor of ``src/`` that renames or removes one would otherwise only show
up as a failed traced benchmark run.
"""

import functools
import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module.MODULES:
        importlib.import_module(f"gsim.{name}")
    return module


def test_every_target_resolves(tracing):
    for mod_name, path, span_name, _ in tracing.TARGETS:
        assert mod_name in tracing.MODULES, span_name
        owner = importlib.import_module(f"gsim.{mod_name}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
            assert owner is not None, f"{span_name}: gsim.{mod_name}.{path} is gone"
        target = vars(owner).get(attr) if outer else getattr(owner, attr, None)
        assert target is not None, f"{span_name}: gsim.{mod_name}.{path} is gone"
        if isinstance(target, functools.cached_property):
            target = target.func
        elif isinstance(target, classmethod):
            target = target.__func__
        assert callable(target), span_name


def test_install_traces_and_uninstall_restores(tracing):
    from gsim import stellar
    from gsim.gaussian import GaussianPure

    original = stellar.state_overlap
    t = GaussianPure.vacuum(1).bargmann
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(stellar.state_overlap, t, t)
    finally:
        tracer.uninstall()
    assert stellar.state_overlap is original
    assert tracer.aggregate()["stellar.state_overlap"]["calls"] == 1


def test_superposition_surface_read_by_the_benchmark():
    """perfbench reads a superposition through ``entries``, ``l1``, ``rank``,
    ``terms()``, ``coefficients()`` and the ``Superposition(entries, l1=)``
    constructor; those views of the stacked storage must keep working."""
    import numpy as np
    from gsim import counters, rng, simulator, states
    from gsim.gaussian import GaussianPure

    lib = states.fock1_ring(states.optimal_fock1_seed(), 8)
    lib.norm_squared()
    fresh = states.Superposition(lib.entries, l1=lib.l1)
    assert "gram" not in vars(fresh)
    assert fresh.rank == lib.rank == len(lib.entries) and fresh.l1 == lib.l1
    assert np.array_equal(fresh.coefficients(), lib.coefficients())
    assert [e.term for e in fresh.entries] == [e.term for e in lib.entries]
    assert abs(fresh.norm_squared() - lib.norm_squared()) <= 1e-14
    assert all(isinstance(t, GaussianPure) for t in lib.terms())

    k = 40
    counters.tally.reset()
    sparse = simulator.sparsify(lib, lib.l1 / np.sqrt(k - 0.5), 3)  # ceil((l1 / delta)^2) = k
    assert counters.tally.samples == k
    draws = np.repeat(np.arange(lib.rank), rng.stream(3, 0).multinomial(k, np.abs(lib.coeffs) / lib.l1))
    unique = len(np.unique(draws))
    assert sparse.rank == len(sparse.entries) == unique < k
    assert len({id(t) for t in sparse.terms()}) == unique
    counters.tally.reset()
    sparse.norm_squared()
    assert counters.tally.overlap_evals == unique * (unique - 1) // 2

    # the approx-default reference rebuilds the sparsified state from its entries
    rebuilt = states.Superposition(sparse.entries, l1=sparse.l1)
    assert abs(rebuilt.norm_squared() - sparse.norm_squared()) <= 1e-14 * sparse.norm_squared()
    amp = sparse.coherent_amplitude([0.3 - 0.2j])
    assert abs(rebuilt.coherent_amplitude([0.3 - 0.2j]) - amp) <= 1e-14 * abs(amp)


def test_circuit_programs_harness_runs_clean():
    """The tiny circuit-programs workload: repeated in-process ``gsim run``
    calls under redirected standard streams, each checked against the oracle."""
    import json
    import subprocess
    import sys

    run = TRACING.parent / "run.py"
    cmd = [sys.executable, str(run), "--workload", "circuit-programs", "--tiny", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
