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
