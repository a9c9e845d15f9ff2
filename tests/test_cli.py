import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsim import cli, fock, simulator, stellar
from gsim.gates import BeamSplitter, Squeeze


# the fields of every result document
RESULT_SCHEMA = {
    "type": "object",
    "required": ["task", "inputs", "value", "error_band", "counters", "seed", "schema_version"],
    "properties": {
        "task": {"type": "string"},
        "inputs": {"type": "object"},
        "value": {"type": ["number", "array", "object"]},
        "error_band": {"type": ["array", "null"]},
        "counters": {
            "type": "object",
            "required": ["amplitude_evals", "samples"],
            "properties": {
                "amplitude_evals": {"type": "integer"},
                "samples": {"type": "integer"},
            },
        },
        "seed": {"type": "integer"},
        "schema_version": {"type": "integer"},
    },
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extent_document_and_schema(capsys):
    code, out, _ = run_cli(["extent", "--state", "cat", "--alpha", "1.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert abs(doc["value"]["extent_upper"] - 1.76160) < 1e-4


def test_determinism_byte_identical(capsys):
    argv = ["born", "--state", "cat", "--alpha", "1.0", "--approx", "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    doc = json.loads(first)
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["counters"]["samples"] > 0


def test_run_program_roundtrip(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 2,
        "seed": 3,
        "initial": {"kind": "cat", "alpha": 1.0, "parity": "+"},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.7853981633974483, "phi": 0.0},
            {"gate": "condition", "modes": [1], "outcome": [[0.0, 0.0]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["value"] > 0
    assert doc["seed"] == 3


def test_run_extent_task(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "grid", "delta": 0.3},
        "task": {"name": "extent"},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0
    value = json.loads(out)["value"]
    assert value["rank"] >= 3


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert "line" in err


def test_a_program_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["run", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


def test_a_ring_too_large_to_allocate_exits_3(tmp_path, capsys):
    # N = 10^12 asks numpy for 2N int64 ring indices, 14.6 TiB; capping this process's
    # address space at 1 TiB makes numpy refuse them on any host, whatever its
    # overcommit policy, so no page of them is ever touched
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard), hard))
    program = {"schema_version": 1, "modes": 1, "initial": {"kind": "fock1_ring", "N": 10**12}, "task": {"name": "extent"}}
    try:
        code, out, err = _run_program(program, tmp_path, capsys)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert (code, out) == (3, "")
    assert err.startswith("out of memory: ") and err.count("\n") == 1, err


def test_validation_error_names_field(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "nosuchstate"},
        "task": {"name": "extent"},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert "initial.kind" in err


def test_missing_required_field_flagged(tmp_path, capsys):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps({"schema_version": 1, "modes": 1, "task": {"name": "extent"}}))
    code, _, _ = run_cli(["run", str(path)], capsys)
    assert code == 2


def _lossy_cat_husimi(alpha, parity, eta, xi):
    """Closed-form Husimi density <xi|rho|xi> / pi of the cat N(|a> + s|-a>)
    after pure loss eta: the channel takes |a><b| to <b|a>^(1 - eta)
    |sqrt(eta) a><sqrt(eta) b|, and <-a|a> = e^(-2|a|^2)."""
    def amp(beta):  # <xi|beta>
        return np.exp(-abs(xi) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(xi) * beta)

    a, fringe = np.sqrt(eta) * alpha, np.exp(-2 * abs(alpha) ** 2)
    cross = 2 * parity * fringe ** (1 - eta) * (amp(a) * np.conj(amp(-a))).real
    return (abs(amp(a)) ** 2 + abs(amp(-a)) ** 2 + cross) / (2 * (1 + parity * fringe) * np.pi)


def _loss(eta):
    """A one-mode pure-loss channel op of transmissivity eta."""
    return {"gate": "channel", "X": (np.sqrt(eta) * np.eye(2)).tolist(), "Y": ((1 - eta) * np.eye(2)).tolist()}


def test_channel_on_a_cat_runs(tmp_path, capsys):
    # a rank-2 state through loss: the channel's Stinespring dilation runs on
    # the superposition, and exact_born is the heterodyne marginal of mode 0
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "cat", "alpha": 1.0, "parity": "-"},
        "ops": [_loss(0.5)],
        "task": {"name": "exact_born", "outcome": [[0.4, -0.3]]},
    }
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    doc = json.loads(out)
    want = _lossy_cat_husimi(1.0, -1, 0.5, 0.4 - 0.3j)
    assert abs(doc["value"] - want) <= 1e-14 * want
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi and hi - lo < 1e-13 * want


def test_channel_pipeline_on_gaussian(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "vacuum"},
        "ops": [
            {"gate": "channel", "X": [[1, 0], [0, 1]], "Y": [[2, 0], [0, 2]], "D": [0, 0]}
        ],
        "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0
    # thermal-noise output: Husimi density 2 / (pi sqrt(det(sigma + I)))
    value = json.loads(out)["value"]
    assert abs(value - 2.0 / (np.pi * 4.0)) < 1e-12


def test_table1_csv(capsys):
    code, out, _ = run_cli(["table1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "breeding_bound,delta,naive_extent,one_sided_extent,published_extent"
    assert len(lines) == 7


def test_breed_and_bs_bounds(capsys):
    code, out, _ = run_cli(["breed-bound", "--xi", "7.496"], capsys)
    assert code == 0 and json.loads(out)["value"] == 4
    code, out, _ = run_cli(["bs-bound", "--mbar", "10"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["value"]["extent_bound"] < doc["value"]["nonclassicality_bound"]


def test_norm_command(capsys):
    code, out, _ = run_cli(["norm", "--state", "vacuum", "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi


def test_norm_of_a_nearly_vanishing_odd_cat_ends(capsys):
    # ||psi||^2 / l1^2 is about 1e-12 here, so the stopping rule alone would
    # need some 1e15 probes; the exact Gram takes over after a bounded number,
    # and its rounding bound keeps the band around the true norm 1
    code, out, _ = run_cli(["norm", "--state", "cat", "--parity", "-", "--alpha", "1e-6"], capsys)
    assert code == 0
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi and lo <= 1.0 <= hi
    assert abs(doc["value"] - 1.0) < 1e-3
    assert doc["counters"]["overlap_evals"] == 1
    assert doc["counters"]["samples"] < 3000


def run_python(args):
    """Run a fresh interpreter on the gsim sources under test."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    result = run_python(["-m", "gsim.cli", "bs-bound", "--mbar", "2"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["task"] == "bs_bound"


def test_a_reader_that_closes_stdout_early_ends_the_run_cleanly():
    # `gsim bs-bound --mbar 700 --sweep | head -c 10`: the ~90 kB document
    # overfills the pipe, so the write after the reader leaves fails
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gsim.cli", "bs-bound", "--mbar", "700", "--sweep"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert head == b'{\n  "count' and err == ""


def test_cli_import_leaves_out_the_optimizer():
    # no gsim module imports scipy.optimize (test_apps runs the optimizer itself without it)
    result = run_python(["-c", "import sys, gsim.cli; print('scipy.optimize' in sys.modules)"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


GSIM_MODULES = sorted(f[:-3] for f in os.listdir(os.path.dirname(cli.__file__)) if f.endswith(".py") and f != "__init__.py")


def test_the_package_exports_no_names_and_loads_no_module():
    # gsim.<module>.<name> is each name's one home
    code = "import sys, gsim; print([k for k in sys.modules if k.startswith('gsim.')], [k for k in dir(gsim) if k[0] != '_'])"
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[] []"


@pytest.mark.parametrize("module", GSIM_MODULES)
def test_every_module_imports_on_its_own(module):
    result = run_python(["-c", f"import gsim.{module}"])
    assert result.returncode == 0, result.stderr


def test_runtime_leaves_out_scipy(tmp_path):
    # gsim runs on numpy alone, the covariance references included: scipy is a test dependency
    path = tmp_path / "prog.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "cat", "alpha": 1.0, "parity": "-"},
        "ops": [_loss(0.5)],
        "task": {"name": "exact_born", "outcome": [[0.4, -0.3]]},
    }))
    script = f"""
import sys
import numpy as np
from gsim import cli
from gsim.gaussian import GaussianMixed, GaussianPure, GeneralDyne, condition_on_generaldyne, fidelity_pure
assert cli.main(["run", {str(path)!r}]) == 0
state = GaussianMixed(np.diag([2.0, 0.5, 1.5, 1.0]), np.zeros(4))
cond = condition_on_generaldyne(state, GeneralDyne.heterodyne([1]), np.array([0.3, -0.2]))
assert 0 < fidelity_pure(cond, GaussianPure.coherent([0.1])) < 1
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_cli_run_leaves_out_jsonschema(tmp_path):
    # programs are typed by the CLI's own readers: jsonschema is a test dependency only
    path = tmp_path / "prog.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "cat", "alpha": 1.0},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.5, 0.3]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.2, -0.1]]},
    }))
    code = "import sys; from gsim import cli; print(cli.main(['run', sys.argv[1]]), 'jsonschema' in sys.modules)"
    result = run_python(["-c", code, str(path)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


# the modules on user paths; phase, fock and gaussian are the references that tests check them against
USER_MODULES = ("cli", "simulator", "states", "stellar", "gates", "apps", "rng", "counters", "exceptions", "_linalg")


def test_user_path_modules_import_no_reference_module():
    # the references import the engine, not the other way round; states keeps
    # gaussian.GaussianPure for the entries view of a superposition
    assert set(GSIM_MODULES) == {*USER_MODULES, "phase", "fock", "gaussian"}
    imported = {}
    for module in USER_MODULES:
        with open(os.path.join(os.path.dirname(cli.__file__), f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pairs = [(a.name.removeprefix("gsim."), "*") for a in node.names if a.name.startswith("gsim.")]
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "gsim"):
                pairs = [(a.name, "*") for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gsim.")):
                pairs = [(node.module.removeprefix("gsim."), a.name) for a in node.names]
            else:
                continue
            for target, name in pairs:
                if target in ("phase", "fock", "gaussian"):
                    imported.setdefault(module, []).append(f"{target}.{name}")
    assert imported == {"states": ["gaussian.GaussianPure"]}


def test_user_paths_leave_out_the_reference_modules(tmp_path):
    # every op kind in one two-mode program, and every subcommand, in one interpreter
    ops = [
        {"gate": "displace", "mode": 0, "alpha": [0.2, -0.1]},
        {"gate": "squeeze", "mode": 1, "r": 0.3, "theta": 0.4},
        {"gate": "phase", "mode": 0, "theta": 0.5},
        {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
        {"gate": "symplectic", "matrix": np.diag([1.2, 1 / 1.2, 1, 1]).tolist(), "shift": [0.1, 0, 0, 0.2]},
        {"gate": "channel", "X": (np.sqrt(0.8) * np.eye(4)).tolist(), "Y": (0.2 * np.eye(4)).tolist()},
        {"gate": "condition", "modes": [1], "outcome": [[0.5, 0.3]]},
    ]
    argvs = []
    for i, task in enumerate([{"name": "exact_born", "outcome": [[0.2, -0.1]]}, {"name": "norm"}]):
        path = tmp_path / f"prog{i}.json"
        path.write_text(json.dumps({"schema_version": 1, "modes": 2, "initial": CAT, "ops": ops, "task": task}))
        argvs.append(["run", str(path)])
    argvs += [
        ["extent", "--state", "grid"],
        ["norm", "--state", "fock1-ring", "--ring-n", "8"],
        ["born", "--state", "gkp", "--outcome", "0.3,0.2"],
        ["born", "--approx", "--state", "cat", "--outcome", "0.3,0.2"],
        ["breed-bound", "--xi", "2"],
        ["bs-bound", "--mbar", "2"],
        ["optimize-fidelity", "--restarts", "1", "--budget", "40"],
        ["table1", "--deltas", "0.3"],
    ]
    code = "import json, sys; from gsim import cli; print([cli.main(a) for a in json.loads(sys.argv[1])], 'gsim.phase' in sys.modules, 'gsim.fock' in sys.modules)"
    result = run_python(["-c", code, json.dumps(argvs)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[0] * len(argvs)} False False"


def test_numerical_failure_exit_code(monkeypatch, capsys):
    from gsim.exceptions import IllConditioned

    def boom(*args, **kwargs):
        raise IllConditioned("synthetic failure")

    monkeypatch.setattr(cli.states, "measures", boom)
    code, _, err = run_cli(["extent", "--state", "cat"], capsys)
    assert code == 3
    assert "numerical failure" in err


def test_unnormalisable_squeeze_is_numerical_failure(tmp_path, capsys):
    # r = 19 rounds tanh r to 1: a numerical failure (exit 3); r = 18 still runs
    for r, expected in ((18.0, 0), (19.0, 3)):
        program = {
            "schema_version": 1,
            "modes": 1,
            "initial": {"kind": "squeezed", "r": r},
            "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
        }
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(program))
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == expected, err
    assert "numerical failure" in err and "not normalisable" in err


def test_invalid_parameter_is_validation_error(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "vacuum"},
        "task": {"name": "norm", "epsilon": 3.0},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, _ = run_cli(["run", str(path)], capsys)
    assert code == 2


def test_mixed_pipeline_rejects_superposition_tasks(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "vacuum"},
        "ops": [
            {"gate": "channel", "X": [[1, 0], [0, 1]], "Y": [[2, 0], [0, 2]], "D": [0, 0]}
        ],
        "task": {"name": "extent"},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert "pure-state pipeline" in err


def test_negative_mode_index_rejected(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "vacuum"},
        "ops": [{"gate": "displace", "mode": -1, "alpha": [0.3, 0.0]}],
        "task": {"name": "exact_born", "outcome": [[0, 0], [0, 0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert "mode index" in err


def test_beamsplitter_repeated_mode_rejected(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "vacuum"},
        "ops": [{"gate": "beamsplitter", "modes": [0, 0], "theta": 0.3}],
        "task": {"name": "exact_born", "outcome": [[0, 0], [0, 0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, _ = run_cli(["run", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "modes, outcome, task_outcome, message",
    [
        ([5], [[0.5, 0.3]], [[0.2, -0.1]], "mode index outside 0..1"),
        ([-1], [[0.5, 0.3]], [[0.2, -0.1], [0, 0]], "mode index outside 0..1"),
        ([1, 1], [[0.5, 0.3], [0.1, 0]], [[0.2, -0.1]], "measured modes must be distinct"),
    ],
)
def test_bad_conditioning_modes_rejected(modes, outcome, task_outcome, message, tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "cat", "alpha": 1.0, "parity": "+"},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": modes, "outcome": outcome},
        ],
        "task": {"name": "exact_born", "outcome": task_outcome},
    }
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2 and out == ""
    assert message in err


def test_born_counters_on_the_ring(capsys):
    # one amplitude per term and the circulant Gram's row of R - 1 overlaps,
    # nothing else
    code, out, err = run_cli(["born", "--state", "fock1-ring", "--ring-n", "8"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["counters"]["amplitude_evals"] == 16
    assert doc["counters"]["overlap_evals"] == 15
    assert doc["counters"]["samples"] == 0


def test_born_on_a_fine_grid_evaluates_one_orbit_row(capsys):
    # the constructor's Toeplitz row of R - 1 = 100 overlaps normalises the
    # rank-101 state, and exact_born reuses that Gram
    code, out, err = run_cli(["born", "--state", "grid", "--grid-delta", "0.05"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["counters"]["overlap_evals"] == 100
    assert doc["counters"]["amplitude_evals"] == 101


def test_exact_born_band_of_a_cancelling_odd_cat(capsys):
    # l1^2 / ||psi||^2 is about 1e8: the odd cat at alpha = 1e-4 is nearly
    # |1>, whose density at 0.3 is 0.09 e^{-0.09} / pi, 1e-9 from the value
    code, out, err = run_cli(["born", "--state", "cat", "--parity", "-", "--alpha", "1e-4", "--outcome", "0.3,0"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi
    assert lo <= 0.09 * np.exp(-0.09) / np.pi <= hi


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "fock1-ring", "--ring-n", "64"],
        ["--state", "grid", "--grid-delta", "0.05"],
        ["--state", "gkp"],
        ["--state", "cat", "--parity", "-"],
        ["--state", "coherent", "--alpha", "0.5"],
    ],
)
def test_exact_born_bands_of_library_states_are_narrow(capsys, argv):
    code, out, err = run_cli(["born", *argv, "--outcome", "0.3,0.2"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi
    assert hi - lo < 1e-12 * doc["value"]


def test_norm_within_its_rounding_bound_is_ill_conditioned(capsys):
    # alpha = 1e-8: l1^2 = 1e16, so c^+ G c has no correct digit left
    code, out, err = run_cli(["norm", "--state", "cat", "--parity", "-", "--alpha", "1e-8"], capsys)
    assert code == 3 and out == ""
    assert "rounding bound" in err


@pytest.mark.parametrize("argv", [["extent", "--alpha", "1e-8"], ["norm", "--alpha", "1e-9"]])
def test_every_exact_norm_within_its_rounding_bound_is_ill_conditioned(argv, capsys):
    # the extent l1^2 / c^+ G c reads the same norm, and an odd cat whose
    # 1 - e^{-2|a|^2} rounds to 0 still builds, so both end in that rule
    code, out, err = run_cli([*argv, "--state", "cat", "--parity", "-"], capsys)
    assert code == 3 and out == ""
    assert "rounding bound" in err


def test_approximate_born_of_a_near_vacuum_odd_cat_draws_counts(capsys):
    # alpha = 1e-4: l1^2 ~ 5e7, so k = (l1 / delta)^2 ~ 1e10 draws, which as
    # an array of indices would take 75 GiB; as counts per term they take two
    argv = ["born", "--state", "cat", "--parity", "-", "--alpha", "1e-4", "--outcome", "0.1,0.2"]
    code, out, err = run_cli([*argv, "--approx"], capsys)
    assert code == 0, err
    approx = json.loads(out)
    assert approx["counters"]["samples"] > 10**9
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    lo, hi = approx["error_band"]
    assert lo <= json.loads(out)["value"] <= hi


def test_approximate_born_names_an_overflowing_sample_count(capsys):
    # alpha = 1e-9: k = (l1 / delta)^2 ~ 1e20 passes numpy's int64 multinomial count
    argv = ["born", "--approx", "--state", "cat", "--parity", "-", "--alpha", "1e-9"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ")
    assert all(name in err for name in ("k = ", "l1 = ", "delta = "))


def test_extent_reports_its_rounding_band(capsys):
    # alpha = 1e-6: extent 1e12 + 1, whose Gram form keeps about 4 digits
    code, out, err = run_cli(["extent", "--state", "cat", "--parity", "-", "--alpha", "1e-6"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"]["extent_upper"] <= hi
    assert lo <= 1e12 + 1 <= hi
    code, out, err = run_cli(["extent", "--state", "coherent", "--alpha", "0.5"], capsys)
    assert code == 0, err
    assert json.loads(out)["error_band"] == [1.0, 1.0]


@pytest.mark.parametrize(
    "task, value, band",
    [
        (
            {"name": "approx_born", "outcome": [[0.2, 0.1]]},
            0.019830489960012715,
            [0.017847440964011443, 0.021813538956013987],
        ),
        ({"name": "norm"}, 0.6086843956436675, [0.5533494505851523, 0.6763159951596305]),
    ],
)
def test_conditioned_approximate_tasks_form_no_gram(task, value, band, tmp_path, capsys, monkeypatch):
    # conditioning returns a log scale, not a weight read from the conditioned
    # state's rank-64 Gram (2016 overlaps): every overlap the run counts is
    # one its norm's route takes, and at rank 64 the fewest probes cost less
    # than those 2016 pairs
    routes = _record_norm_routes(monkeypatch)
    code, out, err = _run_program(_conditioned_ring(32, task), tmp_path, capsys)
    assert code == 0, err
    doc = json.loads(out)
    [(pairs, samples)] = routes
    assert doc["counters"]["overlap_evals"] == (pairs if samples == 0 else 0) == 0
    assert doc["value"] == pytest.approx(value, rel=1e-12)
    assert doc["error_band"] == pytest.approx(band, rel=1e-12)


def test_a_conditioned_rank_128_norm_takes_probes(tmp_path, capsys, monkeypatch):
    # 8128 pending pairs at 42 amplitudes each cost more than 1167 x 128
    # probe amplitudes: the norm samples and evaluates no overlap; its band
    # holds the projected state's norm 0.60991
    routes = _record_norm_routes(monkeypatch)
    code, out, err = _run_program(_conditioned_ring(64, {"name": "norm"}), tmp_path, capsys)
    assert code == 0, err
    doc = json.loads(out)
    [(pairs, samples)] = routes
    assert pairs == 128 * 127 // 2 and 0 < samples <= doc["counters"]["samples"]
    assert doc["counters"]["overlap_evals"] == 0
    assert doc["counters"]["amplitude_evals"] == 128 * doc["counters"]["samples"]
    assert doc["value"] == pytest.approx(0.6086843956436675, rel=1e-12)
    assert doc["error_band"] == pytest.approx([0.5533494505851522, 0.6763159951596305], rel=1e-12)


def test_a_conditioned_norm_is_the_projected_states_norm(tmp_path, capsys):
    # ||(1 (x) <xi|) psi||^2 = pi ||psi||^2 times the heterodyne density, not
    # the norm of the rescaled coefficients that conditioning leaves
    from gsim import states
    from gsim.stellar import GaussianUnitary

    code, out, err = _run_program(_conditioned_ring(16, {"name": "norm"}), tmp_path, capsys)
    assert code == 0, err
    doc = json.loads(out)
    ring = states.fock1_ring(states.optimal_fock1_seed(), 16)
    psi = simulator.evolve(cli._with_vacuum(ring, 2), GaussianUnitary((BeamSplitter(0, 1, 0.6),), 2))
    want = np.pi * psi.norm_squared() * simulator.heterodyne_density(psi, [1], [0.4 - 0.2j]).value
    assert doc["counters"]["samples"] == 0
    assert abs(doc["value"] - want) <= 1e-12 * want
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi


def _conditioned_ring(big_n, task):
    """A fock1 ring of 2 big_n terms, beamsplit with the vacuum and
    heterodyned on the second mode: a general cell of rank 2 big_n."""
    return {
        "schema_version": 1,
        "modes": 2,
        "seed": 3,
        "initial": {"kind": "fock1_ring", "N": big_n},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.4, -0.2]]},
        ],
        "task": task,
    }


def _record_norm_routes(monkeypatch):
    """(pending Gram pairs, samples) of each `simulator.fast_norm` call."""
    routes, original = [], simulator.fast_norm

    def recording(sup, *args, **kw):
        pairs = sup.pending_pairs
        est = original(sup, *args, **kw)
        routes.append((pairs, est.samples))
        return est

    monkeypatch.setattr(simulator, "fast_norm", recording)
    return routes


def test_bs_bound_sweep_checks_the_photon_count(capsys):
    for argv in (["--mbar", "-3"], ["--mbar", "-3", "--sweep"]):
        code, out, err = run_cli(["bs-bound", *argv], capsys)
        assert code == 2 and out == ""
        assert "photon count must be nonnegative" in err


def test_bs_bound_names_an_overflowing_photon_count(capsys):
    # e^mbar overflows from mbar = 710, FOCK1_EXTENT^mbar from 962
    code, out, err = run_cli(["bs-bound", "--mbar", "709"], capsys)
    assert code == 0, err
    assert all(math.isfinite(v) for v in json.loads(out)["value"].values())
    for argv in (["--mbar", "710"], ["--mbar", "2000"], ["--mbar", "710", "--sweep"], ["--mbar", "2000", "--sweep"]):
        code, out, err = run_cli(["bs-bound", *argv], capsys)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and f"mbar = {argv[1]}" in err and "mbar = 709" in err


@pytest.mark.parametrize("flag", ["--delta", "--epsilon", "--pfail"])
def test_exact_born_rejects_the_tolerance_flags(flag, capsys):
    code, out, err = run_cli(["born", flag, "0.3"], capsys)
    assert code == 2 and out == ""
    assert flag in err and "--approx" in err
    code, out, err = run_cli(["born", "--approx", flag, "0.3"], capsys)
    assert code == 0, err
    assert json.loads(out)["inputs"]["program"]["task"][flag[2:]] == 0.3


@pytest.mark.parametrize("big_n", [4, 8])
def test_run_counters_for_gates_condition_and_born(tmp_path, capsys, big_n):
    # rank R = 2N: building the ring, tensoring with vacuum, the gates and the
    # conditioning (closed-form log weights) evaluate no kernel pair and no
    # amplitude; exact_born then takes R amplitudes and R(R-1)/2 Gram pairs
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "fock1_ring", "N": big_n},
        "ops": [
            {"gate": "squeeze", "mode": 0, "r": 0.3},
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "displace", "mode": 1, "alpha": [0.2, -0.1]},
            {"gate": "condition", "modes": [1], "outcome": [[0.4, -0.2]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.2, 0.1]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0, err
    doc = json.loads(out)
    rank = 2 * big_n
    assert doc["counters"]["amplitude_evals"] == rank
    assert doc["counters"]["overlap_evals"] == rank * (rank - 1) // 2
    assert doc["counters"]["samples"] == 0


def test_conditioning_correlated_terms_vs_oracle(tmp_path, capsys):
    # squeezed terms correlated across the cut by a beamsplitter, then
    # heterodyne conditioning at a nonzero outcome
    program = {
        "schema_version": 1,
        "modes": 2,
        "seed": 7,
        "initial": {"kind": "cat", "alpha": 1.0, "parity": "+"},
        "ops": [
            {"gate": "squeeze", "mode": 0, "r": 0.5},
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.5, 0.3]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.2, -0.1]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0, err
    cut = 40
    cat = fock.coherent_column(1.0, cut) + fock.coherent_column(-1.0, cut)
    vec = fock.FockVector(np.multiply.outer(cat, np.eye(cut)[0]).astype(complex), cut)
    for gate in (Squeeze(0, 0.5), BeamSplitter(0, 1, 0.6)):
        vec = fock.apply_gate(vec, gate)
    assert vec.edge_mass() < 1e-15
    target = fock.oracle_born(fock.condition_on_coherent(vec, 1, 0.5 + 0.3j), [0.2 - 0.1j])
    assert abs(json.loads(out)["value"] - target) < 1e-10


def test_invariant_violation_exit_code(monkeypatch, tmp_path, capsys):
    # a corrupted gate update (|c| four times too large) breaks the
    # ref-overlap modulus invariant, which the stacked normalisation check
    # after the beamsplitter reports
    true_gate = stellar.apply_gate

    def corrupted(gate, t, n):
        out = true_gate(gate, t, n)
        return stellar.StellarParams(out.a, out.b, out.log_c + np.log(4.0))

    monkeypatch.setattr(stellar, "apply_gate", corrupted)
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "cat", "alpha": 1.0},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.5, 0.3]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 3
    assert "numerical failure" in err and "ref_overlap" in err


CAT = {"kind": "cat", "alpha": 1.0, "parity": "+"}
VACUUM = {"kind": "vacuum"}
NO_STATE = {}  # state-free tasks: the program has no initial state


@pytest.mark.parametrize(
    "argv, initial, task",
    [
        (["extent", "--state", "cat"], CAT, {"name": "extent"}),
        (["norm", "--state", "vacuum"], VACUUM, {"name": "norm"}),
        (
            ["born", "--state", "fock1-ring", "--ring-n", "4", "--outcome", "0.3,-0.2"],
            {"kind": "fock1_ring", "N": 4},
            {"name": "exact_born", "outcome": [[0.3, -0.2]]},
        ),
        (["born", "--state", "cat", "--approx"], CAT, {"name": "approx_born", "outcome": [[0.0, 0.0]]}),
        (["breed-bound", "--xi", "7.496"], NO_STATE, {"name": "breed_bound", "xi": 7.496}),
        (["bs-bound", "--mbar", "10"], NO_STATE, {"name": "bs_bound", "mbar": 10}),
        (["bs-bound", "--mbar", "5", "--sweep"], NO_STATE, {"name": "bs_bound", "mbar": 5, "sweep": True}),
        (
            ["optimize-fidelity", "--mode", "two", "--restarts", "2", "--budget", "200"],
            NO_STATE,
            {"name": "optimize_fidelity", "mode": "two", "restarts": 2, "budget": 200},
        ),
        (
            ["optimize-fidelity", "--mode", "single", "--restarts", "2", "--budget", "200"],
            NO_STATE,
            {"name": "optimize_fidelity", "mode": "single", "restarts": 2, "budget": 200},
        ),
        (["table1", "--deltas", "0.3,0.1"], NO_STATE, {"name": "table1", "deltas": [0.3, 0.1]}),
    ],
)
def test_subcommand_equals_run_program(argv, initial, task, tmp_path, capsys):
    # only the subcommands whose task reads a seed take --seed
    program = {"schema_version": 1, "modes": 1, "task": task}
    if argv[0] in ("norm", "born", "optimize-fidelity"):
        program["seed"] = 9
        argv = argv + ["--seed", "9"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    if initial is not NO_STATE:
        program["initial"] = initial
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, run_out, err = run_cli(["run", str(path)], capsys)
    assert code == 0, err
    doc, run_doc = json.loads(out), json.loads(run_out)
    jsonschema.validate(doc, RESULT_SCHEMA)
    jsonschema.validate(run_doc, RESULT_SCHEMA)
    assert doc["value"] == run_doc["value"]
    assert doc["error_band"] == run_doc["error_band"]
    assert doc["seed"] == run_doc["seed"]
    assert ("initial" in doc["inputs"]["program"]) == (initial is not NO_STATE)


@pytest.mark.parametrize(
    "argv",
    [
        ["born", "--state", "cat", "--approx", "--delta", "0.3", "--epsilon", "0.2", "--seed", "9", "--outcome", "0.3,0.1"],
        ["born", "--state", "grid", "--approx", "--delta", "0.25", "--pfail", "0.2", "--seed", "4"],
        ["norm", "--state", "fock1-ring", "--ring-n", "4", "--epsilon", "0.3", "--pfail", "0.2", "--seed", "5"],
        ["optimize-fidelity", "--seed", "2", "--restarts", "2", "--budget", "200"],
    ],
)
def test_recorded_program_reproduces_the_run(argv, tmp_path, capsys):
    # every flag a task reads is lowered into inputs.program, so running
    # that program alone prints the same result
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    doc = json.loads(out)
    code, run_out, err = _run_program(doc["inputs"]["program"], tmp_path, capsys)
    assert code == 0, err
    run_doc = json.loads(run_out)
    for key in ("value", "error_band", "seed", "counters"):
        assert doc[key] == run_doc[key], key


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--seed", "4"],
        ["extent", "--delta", "0.2"],
        ["optimize-fidelity", "--threads", "4"],
        ["run", "prog.json", "--seed", "3"],
    ],
)
def test_flags_a_task_does_not_read_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.json").write_text(json.dumps({"schema_version": 1, "modes": 1, "task": {"name": "table1"}}))
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_state_free_task_accepts_an_initial_state(tmp_path, capsys):
    # an initial state is optional for state-free tasks, not forbidden
    program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": "breed_bound", "xi": 7.496}}
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0, err
    assert json.loads(out)["value"] == 4


def _run_program(program, tmp_path, capsys):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    return run_cli(["run", str(path)], capsys)


NOISE = {"gate": "channel", "X": [[1, 0], [0, 1]], "Y": [[2, 0], [0, 2]], "D": [0, 0]}


@pytest.mark.parametrize("pipeline", ["pure", "mixed"])
@pytest.mark.parametrize(
    "field, op",
    [
        ("shift", {"gate": "symplectic", "matrix": [[1, 0], [0, 1]], "shift": [0.3]}),
        ("matrix", {"gate": "symplectic", "matrix": np.eye(4).tolist()}),
    ],
)
def test_symplectic_op_shapes_are_validated(pipeline, field, op, tmp_path, capsys):
    # a one-element shift on one mode is neither dropped nor broadcast, also
    # after a channel (mixed), where the op is embedded as S (+) 1 on the register
    ops = [op] if pipeline == "pure" else [NOISE, op]
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "vacuum"},
        "ops": ops,
        "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
    }
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert f"ops[{len(ops) - 1}].{field}" in err


def test_mixed_pipeline_applies_gates_by_their_symplectic_action(tmp_path, capsys):
    from gsim.gates import Displace, program_symplectic
    from gsim.gaussian import GaussianMixed, GaussianPure, fidelity_pure
    from conftest import random_symplectic

    rng = np.random.default_rng(11)
    x, y, d_ch = np.sqrt(0.8) * np.eye(4), 0.3 * np.eye(4), np.array([0.1, -0.2, 0.3, 0.0])
    s_op, d_op = random_symplectic(2, rng, r_max=0.5), np.array([0.2, 0.1, -0.4, 0.3])
    outcome = [0.3 - 0.2j, -0.1 + 0.4j]
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "vacuum"},
        "ops": [
            {"gate": "channel", "X": x.tolist(), "Y": y.tolist(), "D": d_ch.tolist()},
            {"gate": "squeeze", "mode": 0, "r": 0.4, "theta": 0.7},
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6, "phi": 0.2},
            {"gate": "displace", "mode": 1, "alpha": [0.3, -0.5]},
            {"gate": "symplectic", "matrix": s_op.tolist(), "shift": d_op.tolist()},
        ],
        "task": {"name": "exact_born", "outcome": [[z.real, z.imag] for z in outcome]},
    }
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    s, d = program_symplectic([Squeeze(0, 0.4, 0.7), BeamSplitter(0, 1, 0.6, 0.2), Displace(1, 0.3 - 0.5j)], 2)
    s, d = s_op @ s, s_op @ d + d_op
    cov, mean = x @ x.T + y, d_ch
    want = fidelity_pure(GaussianMixed(s @ cov @ s.T, s @ mean + d), GaussianPure.coherent(outcome)) / np.pi**2
    assert abs(json.loads(out)["value"] - want) < 1e-12


def _through(initial, ops, modes):
    """The final state of a program's ops and its system-mode count, as
    ``cli.execute`` builds them."""
    segments, system = cli.lower_ops(ops, modes)
    return cli._run_segments(_initial(initial, modes), segments)[0], system


def _born(state, system, outcome):
    return cli._perform(state, system, cli.read_task({"name": "exact_born", "outcome": outcome}), 0)


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("eta", [0.9, 0.5, 0.1])
@pytest.mark.parametrize("alpha", [2.0, 0.5, 1.3 + 0.4j])
def test_lossy_cats_match_their_closed_form_husimi(alpha, eta, parity):
    initial = {"kind": "cat", "alpha": [alpha.real, alpha.imag], "parity": parity}
    state, system = _through(initial, [_loss(eta)], 1)
    for xi in (0.0, 0.7 - 0.2j, -1.1 + 0.9j, 2.5j):
        value, (lo, hi) = _born(state, system, [[xi.real, xi.imag]])
        want = _lossy_cat_husimi(alpha, parity, eta, xi)
        assert abs(value - want) <= 1e-13 * want
        assert lo <= value <= hi


def test_random_channels_match_the_covariance_path():
    from gsim.gates import Displace, program_symplectic
    from gsim.gaussian import GaussianMixed, GaussianPure, apply_channel, fidelity_pure
    from conftest import random_cp_channel

    rng = np.random.default_rng(5)
    for modes in (1, 2, 1, 2, 1, 2):
        gates = [Squeeze(0, rng.uniform(0.2, 1.5), rng.uniform(0, 6)), Displace(0, complex(*rng.normal(size=2)))]
        ops = [
            {"gate": "squeeze", "mode": 0, "r": gates[0].r, "theta": gates[0].theta},
            {"gate": "displace", "mode": 0, "alpha": [gates[1].alpha.real, gates[1].alpha.imag]},
        ]
        if modes == 2:
            gates.append(BeamSplitter(0, 1, 0.7, 0.3))
            ops.append({"gate": "beamsplitter", "modes": [0, 1], "theta": 0.7, "phi": 0.3})
        x, y = random_cp_channel(modes, rng)
        d = rng.normal(size=2 * modes)
        ops.append({"gate": "channel", "X": x.tolist(), "Y": y.tolist(), "D": d.tolist()})
        state, system = _through({"kind": "vacuum"}, ops, modes)
        s, shift = program_symplectic(gates, modes)
        rho = apply_channel(GaussianMixed(s @ s.T, shift), cli.GaussianChannel(x, y, d))
        for _ in range(4):
            xis = rng.normal(size=modes) + 1j * rng.normal(size=modes)
            value, (lo, hi) = _born(state, system, [[z.real, z.imag] for z in xis])
            want = fidelity_pure(rho, GaussianPure.coherent(xis)) / np.pi**modes
            assert abs(value - want) <= 1e-12 * want
            assert lo <= value <= hi


def test_lossy_ring_marginal_matches_the_fock_oracle():
    # the oracle takes loss as a beamsplitter onto a vacuum mode, another
    # dilation than gsim's, and sums |<xi, n_E|psi>|^2 over the environment
    from gsim.gates import Displace, PhaseShift

    big_n, eta, cut = 8, 0.6, 70
    state, system = _through({"kind": "fock1_ring", "N": big_n}, [_loss(eta)], 1)
    seed = [Squeeze(0, np.log(np.sqrt(3.0))), Displace(0, np.sqrt(2.0 / 3.0))]
    ring = sum(
        np.exp(-1j * np.pi * m / big_n) * fock.oracle_state(seed + [PhaseShift(0, np.pi * m / big_n)], 1, cutoff=cut).amplitudes
        for m in range(2 * big_n)
    )
    vec = fock.FockVector(np.multiply.outer(ring, np.eye(cut)[0]), cut)
    u = np.array([[np.sqrt(eta), np.sqrt(1 - eta)], [-np.sqrt(1 - eta), np.sqrt(eta)]])
    vec = fock.apply_mode_unitary(vec, u, (0, 1))
    assert vec.edge_mass() < 1e-20
    for xi in (0.0, 0.5 + 0.2j, -0.8j, 1.4 - 0.6j):
        value, _ = _born(state, system, [[xi.real, xi.imag]])
        want = fock.condition_on_coherent(vec, 0, xi).norm_squared() / (np.pi * vec.norm_squared())
        assert abs(value - want) <= 1e-10 * want


def test_two_channels_equal_their_composition():
    from gsim.gates import GaussianChannel
    from gsim.gaussian import compose_channels
    from conftest import random_cp_channel

    rng = np.random.default_rng(8)
    c1, c2 = (GaussianChannel(*random_cp_channel(2, rng), rng.normal(size=4)) for _ in range(2))
    c12 = compose_channels(c1, c2)

    def op(c):
        return {"gate": "channel", "X": c.x.tolist(), "Y": c.y.tolist(), "D": c.d.tolist()}

    cat = {"kind": "cat", "alpha": [1.2, 0.3], "parity": -1}
    first = [{"gate": "beamsplitter", "modes": [0, 1], "theta": 0.5}]
    two, system = _through(cat, first + [op(c1), op(c2)], 2)
    one, _ = _through(cat, first + [op(c12)], 2)
    for outcome in ([[0.3, 0.1], [-0.2, 0.4]], [[1.0, -0.5], [0.0, 0.0]]):
        a, b = _born(two, system, outcome)[0], _born(one, system, outcome)[0]
        assert abs(a - b) <= 1e-12 * b


def test_condition_after_a_channel_matches_generaldyne():
    from gsim.gates import program_symplectic
    from gsim.gaussian import (
        GaussianChannel, GaussianMixed, GaussianPure, GeneralDyne, apply_channel, condition_on_generaldyne, fidelity_pure
    )

    x, y, d = np.sqrt(0.7) * np.eye(4), np.diag([0.5, 0.3, 0.4, 0.6]), np.array([0.2, -0.1, 0.0, 0.3])
    xi_b, xi_a = 0.4 - 0.3j, -0.2 + 0.5j
    ops = [
        {"gate": "squeeze", "mode": 0, "r": 0.6, "theta": 0.4},
        {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.8, "phi": 0.1},
        {"gate": "channel", "X": x.tolist(), "Y": y.tolist(), "D": d.tolist()},
        {"gate": "condition", "modes": [1], "outcome": [[xi_b.real, xi_b.imag]]},
        {"gate": "squeeze", "mode": 0, "r": 0.2},
    ]
    state, system = _through({"kind": "vacuum"}, ops, 2)
    assert system == 1
    value, (lo, hi) = _born(state, system, [[xi_a.real, xi_a.imag]])
    s, _ = program_symplectic([Squeeze(0, 0.6, 0.4), BeamSplitter(0, 1, 0.8, 0.1)], 2)
    rho = apply_channel(GaussianMixed(s @ s.T, np.zeros(4)), GaussianChannel(x, y, d))
    quad = np.sqrt(2) * np.array([xi_b.real, xi_b.imag])
    cond = condition_on_generaldyne(rho, GeneralDyne.heterodyne([1]), quad)
    sq, _ = program_symplectic([Squeeze(0, 0.2)], 1)
    want = fidelity_pure(GaussianMixed(sq @ cond.cov @ sq.T, sq @ cond.mean), GaussianPure.coherent([xi_a])) / np.pi
    assert abs(value - want) <= 1e-13 * want
    assert lo <= value <= hi


def test_norm_after_a_channel_is_the_dilated_norm(tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "seed": 2, "initial": CAT, "ops": [_loss(0.4)], "task": {"name": "norm"}}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    lo, hi = json.loads(out)["error_band"]
    assert lo <= 1.0 <= hi  # a cat is normalised, and the dilation is unitary


@pytest.mark.parametrize("task", [{"name": "approx_born", "outcome": [[0, 0]]}, {"name": "extent"}])
def test_tasks_without_a_mixed_state_definition_exit_2(task, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [_loss(0.4)], "task": task}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert f"task.name: {task['name']}" in err and "after a channel" in err


def test_channel_noise_must_be_symmetric(tmp_path, capsys):
    # eigvalsh reads one triangle, so this Y would pass a bare CP check
    channel = {"gate": "channel", "X": [[1, 0], [0, 1]], "Y": [[1, 5], [0, 1]]}
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [NOISE, channel], "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert "ops[1].Y" in err and "symmetric" in err


def test_gates_after_a_channel_stay_on_the_system_modes(tmp_path, capsys):
    # the environment mode the channel appended is not the program's to touch
    ops = [_loss(0.5), {"gate": "displace", "mode": 1, "alpha": [0.1, 0.0]}]
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": ops, "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert "mode index outside 0..0" in err


def test_a_strongly_squeezing_symplectic_op_runs(tmp_path, capsys):
    # exact_born after a `symplectic` op carrying the S of some gates, and after the
    # same gates as ops: each value lies inside the other's band.  S of a squeeze at
    # r = 10.5 is symplectic only to its rounding, about EPS ||S||^2 = 3e-7; on two
    # modes, an odd cat's two terms keep their relative phase through the one gate
    from gsim.gates import program_symplectic

    odd_cat = {"kind": "cat", "alpha": 1.3, "parity": "-"}
    cases = [(1, CAT, [Squeeze(0, 10.5, 1.3)], [[0.3, -0.2]])] + [
        (2, odd_cat, [Squeeze(0, r, 1.3), BeamSplitter(0, 1, 0.7)], [[0.2, 0.1], [0.05, -0.02]]) for r in (8.0, 12.0)
    ]
    for modes, initial, gates, outcome in cases:
        ops = [{"gate": "squeeze", "mode": 0, "r": gates[0].r, "theta": 1.3}]
        if modes == 2:
            ops.append({"gate": "beamsplitter", "modes": [0, 1], "theta": 0.7})
        results = []
        for program_ops in ([{"gate": "symplectic", "matrix": program_symplectic(gates, modes)[0].tolist()}], ops):
            task = {"name": "exact_born", "outcome": outcome}
            program = {"schema_version": 1, "modes": modes, "initial": initial, "ops": program_ops, "task": task}
            code, out, err = _run_program(program, tmp_path, capsys)
            assert code == 0, err
            doc = json.loads(out)
            results.append((doc["value"], doc["error_band"]))
        (a, (a_lo, a_hi)), (b, (b_lo, b_hi)) = results
        assert a_lo <= b <= a_hi and b_lo <= a <= b_hi, (modes, gates[0].r)


@pytest.mark.parametrize("pipeline", ["pure", "mixed"])
def test_a_nonsymplectic_matrix_names_its_field(pipeline, tmp_path, capsys):
    ops = [{"gate": "symplectic", "matrix": [[2, 0], [0, 2]]}]
    ops = ops if pipeline == "pure" else [NOISE, *ops]
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": ops, "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert f"ops[{len(ops) - 1}].matrix" in err and "not symplectic" in err


def _squeezed_loss(r):
    """Loss 1/2 after a squeeze r at angle 1.3: X = sqrt(1/2) S(r), Y = I / 2, exactly
    CP at every r since H = (I + i Omega) / 2."""
    from gsim.gates import program_symplectic

    x = np.sqrt(0.5) * program_symplectic([Squeeze(0, r, 1.3)], 1)[0]
    return {"gate": "channel", "X": x.tolist(), "Y": (0.5 * np.eye(2)).tolist()}


@pytest.mark.parametrize("r", [10.0, 11.0, 12.0])
def test_a_strongly_squeezing_loss_runs(r, tmp_path, capsys):
    # the CP check and the dilation share H's eigenvalue rounding, EPS (||H|| + ||X||^2)
    from gsim.gates import GaussianChannel
    from gsim.gaussian import GaussianPure, apply_channel, fidelity_pure

    op = _squeezed_loss(r)
    task = {"name": "exact_born", "outcome": [[0.3, 0.1]]}
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [op], "task": task}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    alpha, xi = 0.3 - 0.2j, 0.4 + 0.1j
    rho = apply_channel(GaussianPure.coherent([alpha]).as_mixed(), GaussianChannel(op["X"], op["Y"], np.zeros(2)))
    want = fidelity_pure(rho, GaussianPure.coherent([xi])) / np.pi
    state, system = _through({"kind": "coherent", "alpha": [alpha.real, alpha.imag]}, [op], 1)
    value, _ = _born(state, system, [[xi.real, xi.imag]])
    assert abs(value - want) <= np.finfo(float).eps * np.linalg.norm(rho.cov, 2) * want


def test_an_amplifier_without_its_noise_exits_2(tmp_path, capsys):
    # gain 2 needs Y >= I; Y = I / 2 leaves H with eigenvalue -1/2
    channel = {"gate": "channel", "X": (np.sqrt(2.0) * np.eye(2)).tolist(), "Y": (0.5 * np.eye(2)).tolist()}
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [channel], "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 2
    assert "ops[0].Y" in err and "channel violates" in err


@pytest.mark.parametrize("broken", ["is_symplectic"])
def test_a_broken_dilation_is_a_numerical_failure(broken, monkeypatch, tmp_path, capsys):
    from gsim import gates

    monkeypatch.setattr(gates, broken, lambda s: False)
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [_loss(0.5)], "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 3
    assert "numerical failure" in err and "dilation" in err


def test_a_channel_op_decomposes_its_noise_form_once(monkeypatch, tmp_path, capsys):
    # the CP check and the dilation read one eigh of H = Y + i (Omega - X Omega X^T)
    from gsim.gates import block_diag, omega

    calls = []

    def recording(name):
        fn = getattr(np.linalg, name)
        return lambda a, *args, **kw: calls.append((name, np.array(a))) or fn(a, *args, **kw)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [_loss(0.5), _loss(0.8)], "task": {"name": "norm"}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    # the second loss acts on the system mode and passes the first one's environment mode through
    for env, op in enumerate(program["ops"]):
        x, y = block_diag(np.array(op["X"]), np.eye(2 * env)), block_diag(np.array(op["Y"]), np.zeros((2 * env,) * 2))
        om = omega(1 + env)
        h = y + 1j * (om - x @ om @ x.T)
        seen = [name for name, a in calls if a.shape == h.shape and np.allclose(a, h, rtol=0, atol=1e-12)]
        assert seen == ["eigh"], (env, seen)


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # in one process the shared parser must answer each argv exactly as a
    # fresh interpreter does: no flag carries over, errors still print usage
    monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping on both sides
    path = tmp_path / "program.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "modes": 2,
        "seed": 4,
        "initial": CAT,
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.5, 0.3]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.2, -0.1]]},
    }))
    sequence = [
        (["born", "--approx", "--seed", "9"], 0),
        (["born"], 0),
        (["born", "--no-such-flag"], 2),
        (["run", str(path)], 0),
    ]
    cli._parser.cache_clear()
    outputs = []
    for argv, want in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == want, captured.err
        outputs.append((code, captured.out, captured.err))
    assert cli._parser.cache_info().misses == 1
    assert json.loads(outputs[0][1])["task"] == "approx_born"
    assert json.loads(outputs[1][1])["task"] == "exact_born"
    assert outputs[2][2].startswith("usage: gsim") and "--no-such-flag" in outputs[2][2]
    for (argv, _), got in zip(sequence, outputs):
        fresh = run_python(["-m", "gsim.cli", *argv])
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == got, argv


@pytest.mark.parametrize("delta", ["0", "-0.1", "inf"])
def test_table1_rejects_a_delta_that_is_not_positive_and_finite(delta, capsys):
    code, out, err = run_cli(["table1", "--deltas", f"0.1,{delta}"], capsys)
    assert code == 2 and out == ""
    if delta == "inf":  # the task's reader refuses it, naming the element
        assert err == "validation error: task.deltas[1]: expected a finite number\n"
    else:
        assert "delta must be positive" in err


@pytest.mark.parametrize("deltas", ["0.1,,0.2", "0.1,x"])
def test_table1_names_a_delta_that_is_not_a_number(deltas, capsys):
    code, out, err = run_cli(["table1", "--deltas", deltas], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: --deltas: ") and repr(deltas) in err


@pytest.mark.parametrize("flags", [["--restarts", "0"], ["--restarts", "-3"], ["--budget", "0"]])
def test_optimizer_counts_below_one_are_validation_errors(flags, monkeypatch, capsys):
    import threading

    def no_run(*args, **kwargs):
        raise AssertionError("an invalid optimizer configuration reached the optimizer")

    monkeypatch.setattr(cli.apps, "optimize_fidelity", no_run)
    before = threading.active_count()
    code, out, err = run_cli(["optimize-fidelity", *flags], capsys)
    assert code == 2, err
    assert out == "" and "must be at least 1" in err
    assert threading.active_count() == before


@pytest.mark.parametrize(("flags", "least"), [
    (["--restarts", "4", "--budget", "8"], 36),
    (["--restarts", "32", "--budget", "287"], 288),
    (["--mode", "single", "--restarts", "4", "--budget", "11"], 12),
])
def test_a_budget_below_the_initial_simplices_is_a_validation_error(flags, least, capsys):
    # no restart finishes its initial simplex (len(bounds) + 1 points) on less
    code, out, err = run_cli(["optimize-fidelity", *flags], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("validation error: task: budget must be at least")
    assert f"= {least}," in err


def test_budget_caps_the_reported_evaluations(capsys):
    code, out, _ = run_cli(["optimize-fidelity", "--restarts", "4", "--budget", "40"], capsys)
    assert code == 0
    assert 36 <= json.loads(out)["value"]["evaluations"] <= 40


MISSING = object()  # a field left out of the program


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"task": {"name": "table1", "deltas": 0.1}}, "task.deltas"),
        ({"task": {"name": "breed_bound", "xi": None}}, "task.xi"),
        ({"initial": {"kind": "gkp", "s_max": "3"}, "task": {"name": "extent"}}, "initial.s_max"),
        *(
            ({"initial": VACUUM, "ops": ops, "task": {"name": "extent"}}, path)
            for ops, path in (
                ([{"gate": "phase", "mode": 0, "theta": None}], "ops[0].theta"),
                ([{"gate": "displace", "mode": 0, "alpha": [None, 0.0]}], "ops[0].alpha[0]"),
                ([{"gate": "squeeze", "mode": 0}], "ops[0].r"),
                ([{"gate": "phase", "mode": 0.7, "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "phase", "mode": "0", "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "phase", "mode": True, "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "beamsplitter", "modes": [0, 1.0], "theta": 0.3}], "ops[0].modes[1]"),
                ([{"gate": "symplectic", "matrix": [[1, 0], [0, "1"]]}], "ops[0].matrix"),
                ([{"gate": "phase", "mode": 0, "theta": 0.1}, {"gate": "condition", "modes": 1}], "ops[1].modes"),
                ([{"gate": "condition", "modes": [0], "outcome": [[0, True]]}], "ops[0].outcome[0][1]"),
            )
        ),
        ({"schema_version": MISSING, "task": {"name": "extent"}}, "schema_version"),
        ({"modes": 0, "task": {"name": "extent"}}, "modes"),
        ({"schema_version": "1", "modes": 1.5, "task": {}}, "schema_version"),
        ({"initial": {}, "ops": {"gate": "phase"}, "task": {"name": "norm"}}, "ops"),
        ({"modes": 2.0, "initial": VACUUM, "task": {"name": "extent"}}, "modes"),
        (
            {"initial": {"kind": "fock1_ring", "seed_state": "optimall"}, "task": {"name": "extent"}},
            "initial.seed_state",
        ),
        ({"initial": VACUUM, "task": {"name": "exact_born"}}, "task.outcome"),
        ({"schema_version": 7, "task": {"name": "breed_bound", "xi": 7.496}}, "schema_version"),
        ({"initial": VACUUM, "ops": [{"gate": "beamsplitter", "modes": [0], "theta": 0.3}], "task": {"name": "extent"}}, "ops[0].modes"),
    ],
)
def test_mistyped_program_fields_are_validation_errors(fields, path, tmp_path, capsys):
    program = {key: value for key, value in {"schema_version": 1, "modes": 1, **fields}.items() if value is not MISSING}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and err.startswith(f"validation error: {path}: ")


@pytest.mark.parametrize(
    "modes, ops, name",
    [
        (1, [], "exact_born"),
        (1, [], "approx_born"),
        (1, [NOISE], "exact_born"),
        (2, [{"gate": "condition", "modes": [1], "outcome": [0.0]}], "exact_born"),
    ],
    ids=["exact_born", "approx_born", "exact_born_after_channel", "exact_born_after_condition"],
)
def test_an_outcome_of_the_wrong_length_exits_before_any_estimator(modes, ops, name, tmp_path, capsys, monkeypatch):
    from gsim import simulator

    for estimator in ("exact_born", "approx_born", "heterodyne_density", "sparsify", "fast_norm"):
        monkeypatch.setattr(simulator, estimator, lambda *args, **kw: pytest.fail("an estimator ran"))
    task = {"name": name, "outcome": [0.0, 0.5]}
    program = {"schema_version": 1, "modes": modes, "initial": VACUUM, "ops": ops, "task": task}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and err == "validation error: task.outcome: expected one entry per system mode (1), got 2\n"


@pytest.mark.parametrize("t_max", [0, 8])
def test_a_grid_takes_no_t_max(t_max, tmp_path, capsys):
    # a grid's cut is the least that meets states.TAIL_TOL: a given t_max of 0
    # would drop l1 mass 2.33, more than it keeps, and report extent 1
    program = {"schema_version": 1, "modes": 1, "initial": {"kind": "grid", "delta": 0.3, "t_max": t_max}}
    code, out, err = _run_program({**program, "task": {"name": "extent"}}, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and err == "validation error: initial.t_max: unknown field of kind 'grid'\n"


def test_a_gkp_word_without_s_max_takes_the_cut_it_needs(capsys):
    # --grid-delta 0.1 sets kappa = delta = 0.1, whose least cut is s_max 17
    code, out, err = run_cli(["extent", "--state", "gkp", "--grid-delta", "0.1"], capsys)
    assert code == 0, err
    assert json.loads(out)["value"]["rank"] == 35


@pytest.mark.parametrize("delta", [0.0, -0.1])
def test_approx_born_rejects_a_delta_that_is_not_positive(delta, tmp_path, capsys):
    code, out, err = run_cli(["born", "--approx", "--state", "cat", f"--delta={delta}"], capsys)
    assert code == 2, err
    assert out == "" and "delta must be positive" in err
    task = {"name": "approx_born", "outcome": [[0.0, 0.0]], "delta": delta}
    code, out, err = _run_program({"schema_version": 1, "modes": 1, "initial": CAT, "task": task}, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and "delta must be positive" in err


PROGRAM_TEXT = (
    '{"schema_version": 1, "modes": 1, "initial": {"kind": "coherent", "alpha": [ALPHA, 0]},'
    ' "ops": [{"gate": "squeeze", "mode": 0, "r": R, "theta": THETA}],'
    ' "task": {"name": "exact_born", "outcome": [[XI, 0]]}}'
)


@pytest.mark.parametrize(
    "field, number, path",
    [
        ("THETA", "NaN", "ops[0].theta"),
        ("THETA", "Infinity", "ops[0].theta"),
        ("R", "1e400", "ops[0].r"),
        ("ALPHA", "NaN", "initial.alpha[0]"),
        ("XI", "-Infinity", "task.outcome[0][0]"),
    ],
)
def test_non_finite_program_numbers_are_validation_errors(field, number, path, tmp_path, capsys):
    # Python's json reads NaN, Infinity and 1e400 (as inf); none of them runs
    text = PROGRAM_TEXT
    for name in ("ALPHA", "R", "THETA", "XI"):
        text = text.replace(name, number if name == field else "0.1")
    prog = tmp_path / "prog.json"
    prog.write_text(text)
    code, out, err = run_cli(["run", str(prog)], capsys)
    assert code == 2, err
    assert out == "" and err.startswith(f"validation error: {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["born", "--outcome", "nan,0"],
        ["born", "--outcome", "0,inf"],
        ["extent", "--state", "coherent", "--alpha", "inf"],
        ["norm", "--epsilon", "nan"],
        ["breed-bound", "--xi=-inf"],
    ],
)
def test_non_finite_float_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == "" and "is not a finite number" in captured.err


def test_non_finite_result_is_a_numerical_failure_and_never_printed(monkeypatch, capsys):
    monkeypatch.setattr(cli.states, "breeding_lower_bound", lambda xi: float("nan"))
    code, out, err = run_cli(["breed-bound", "--xi", "7.5"], capsys)
    assert code == 3
    assert out == "" and err.startswith("numerical failure: ")
    for fmt in ("json", "csv"):
        with pytest.raises(FloatingPointError):
            cli.emit({"value": float("inf")}, fmt, out=None)
    assert capsys.readouterr().out == ""


def test_malformed_op_wins_over_an_earlier_numerical_failure(tmp_path, capsys):
    # squeezing at r = 30 alone fails numerically (exit 3), but the whole op
    # list is validated before any gate runs
    squeeze = {"gate": "squeeze", "mode": 0, "r": 30.0}
    program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": "extent"}}
    code, _, err = _run_program({**program, "ops": [squeeze]}, tmp_path, capsys)
    assert code == 3, err
    ops = [squeeze, {"gate": "phase", "mode": 0, "theta": None}]
    code, out, err = _run_program({**program, "ops": ops}, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ops[1].theta: ")
    # the whole program is typed before the initial state is built: squeezing
    # the initial state at r = 19 fails numerically, a mistyped op or task
    # field after it still exits 2
    program = {**program, "initial": {"kind": "squeezed", "r": 19}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 3, err
    for fields, path in (
        ({"ops": [{"gate": "phase", "mode": 0, "theta": None}]}, "ops[0].theta"),
        ({"task": {"name": "breed_bound", "xi": None}}, "task.xi"),
    ):
        code, out, err = _run_program({**program, **fields}, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"validation error: {path}: ")


def test_each_gate_run_costs_one_evolve_and_one_normalisation_check(monkeypatch):
    from gsim import simulator

    calls = {"evolve": 0, "check_normalised": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    state = _initial(CAT, 2)
    monkeypatch.setattr(simulator, "evolve", counted("evolve", simulator.evolve))
    monkeypatch.setattr(stellar, "check_normalised", counted("check_normalised", stellar.check_normalised))
    ops = [
        {"gate": "squeeze", "mode": 0, "r": 0.3},
        {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
        {"gate": "displace", "mode": 1, "alpha": [0.2, -0.1]},
        {"gate": "condition", "modes": [1], "outcome": [[0.4, -0.2]]},
        {"gate": "phase", "mode": 0, "theta": 0.5},
        {"gate": "squeeze", "mode": 0, "r": 0.2, "theta": 1.0},
    ]
    out = _all_ops(state, ops, 2)
    assert out.n == 1
    assert calls == {"evolve": 2, "check_normalised": 2}


def _gate_ops(modes):
    """Strategy: a list of one to four gate ops on ``modes`` modes."""
    from gsim.gates import beamsplitter_unitary, passive_from_unitary

    mode, angle, small = st.integers(0, modes - 1), st.floats(0, 2 * np.pi), st.floats(-0.5, 0.5)

    def passive(t, p, a, shift):
        u = np.diag(np.exp(1j * np.array([a, -a][:modes])))
        if modes == 2:
            u = beamsplitter_unitary(t, p) @ u
        return {"gate": "symplectic", "matrix": passive_from_unitary(u).tolist(), "shift": [shift] * (2 * modes)}

    def op(gate, **fields):
        return st.fixed_dictionaries({"gate": st.just(gate), **fields})

    kinds = [
        op("displace", mode=mode, alpha=st.tuples(small, small).map(list)),
        op("squeeze", mode=mode, r=st.floats(0, 0.4), theta=angle),
        op("phase", mode=mode, theta=angle),
        st.builds(passive, st.floats(0, 1.5), angle, angle, small),
    ]
    if modes == 2:
        kinds.append(op("beamsplitter", modes=st.just([0, 1]), theta=st.floats(0, 1.5), phi=angle))
    return st.lists(st.one_of(kinds), min_size=1, max_size=4)


def _initial(init, modes):
    """The initial state ``cli.execute`` builds from a program's ``initial``."""
    return cli._initial_state(cli.read_initial(init), modes)


def _all_ops(state, ops, modes):
    """The op list as ``cli.execute`` runs it: lowered, then run segment by segment."""
    return cli._run_segments(state, cli.lower_ops(ops, modes)[0])[0]


def _per_op(state, ops, modes):
    """The op list lowered as ``cli.execute`` lowers it, then run one op at a
    time: every gate op is its own run and evolve."""
    for kind, *segment in cli.lower_ops(ops, modes)[0]:
        parts = [[gates] for gates in segment[1]] if kind == "gates" else [segment[1]]
        for part in parts:
            state = cli._run_segments(state, [(kind, segment[0], part)])[0]
    return state


def _bits(state):
    t = state.triples
    return [x.tobytes() for x in (state.coeffs, t.a, t.b, t.log_c)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pipeline=st.sampled_from(["pure", "condition", "channel"]))
def test_folded_gate_runs_equal_one_evolve_per_gate(data, pipeline):
    # the fold applies the same gates in the same order, so every triple and
    # the whole result document are bit-identical to a per-gate evolve
    small = st.floats(-0.6, 0.6)
    xi, alpha = (complex(data.draw(small), data.draw(small)) for _ in range(2))
    initial = {"kind": "cat", "alpha": [alpha.real + 0.4, alpha.imag]}
    middle, modes = [], 2
    if pipeline == "condition":
        middle, modes = [{"gate": "condition", "modes": [1], "outcome": [[xi.real, xi.imag]]}], 1
    elif pipeline == "channel":
        middle = [{"gate": "channel", "X": (0.9 * np.eye(4)).tolist(), "Y": (0.2 * np.eye(4)).tolist()}]
    ops = data.draw(_gate_ops(2)) + middle + data.draw(_gate_ops(modes))
    task = {"name": "exact_born", "outcome": [[xi.imag, xi.real]] * modes}
    got = []
    for run in (_all_ops, _per_op):
        cli.counters.tally.reset()
        state = run(_initial(initial, 2), ops, 2)
        value, band = cli._perform(state, modes, cli.read_task(task), 0)
        doc = cli.result_document("exact_born", {"ops": ops}, value, band, 0)
        got.append((_bits(state), cli.emit(doc, "json", out=io.StringIO())))
    assert got[0] == got[1]


# one program of each initial kind, every numeric field spelled out
LEAF_INITIALS = [
    VACUUM,
    {"kind": "coherent", "alpha": [0.3, -0.2]},
    {"kind": "squeezed", "r": 0.3, "theta": 0.7, "alpha": 0.4},
    {"kind": "cat", "alpha": [0.9, 0.1], "parity": -1},
    {"kind": "gkp", "d": 2, "mu": 1, "kappa": 0.9, "delta": 0.5, "s_max": 2},
    {"kind": "grid", "delta": 0.5},
    {"kind": "fock1_ring", "N": 3},
]
ARRAY_FIELDS = ("matrix", "shift", "X", "Y", "D")


def _leaf_tasks(system, mixed):
    """Every task, with each of its numeric fields spelled out; approx_born and
    extent only on a pure state."""
    outcome = [[0.2, -0.1]] * system
    tasks = [
        {"name": "exact_born", "outcome": outcome},
        {"name": "norm", "epsilon": 0.2, "pfail": 0.1},
        {"name": "breed_bound", "xi": 7.5},
        {"name": "bs_bound", "mbar": 3},
        {"name": "optimize_fidelity", "mode": "single", "restarts": 2, "budget": 200},
        {"name": "table1", "deltas": [0.3, 0.1]},
    ]
    if not mixed:
        tasks += [{"name": "approx_born", "outcome": outcome, "delta": 0.3, "epsilon": 0.2, "pfail": 0.1}, {"name": "extent"}]
    return tasks


@st.composite
def _leaf_programs(draw):
    """A valid program: gate ops (symplectic among them), then a channel or a
    condition or neither, then gate ops on the modes left, and a task."""
    modes = draw(st.integers(1, 2))
    middle = draw(st.sampled_from(["none", "channel", "condition"] if modes == 2 else ["none", "channel"]))
    ops = draw(st.one_of(st.just([]), _gate_ops(modes)))
    system = modes - (middle == "condition")
    if middle == "channel":
        eye = np.eye(2 * modes)
        ops.append({"gate": "channel", "X": (0.8 * eye).tolist(), "Y": (0.36 * eye).tolist(), "D": [0.1] * (2 * modes)})
    elif middle == "condition":
        ops.append({"gate": "condition", "modes": [1], "outcome": [[0.1, 0.2]]})
    ops += draw(st.one_of(st.just([]), _gate_ops(system)))
    task = draw(st.sampled_from(_leaf_tasks(system, middle == "channel")))
    return {"schema_version": 1, "modes": modes, "seed": 5, "initial": draw(st.sampled_from(LEAF_INITIALS)), "ops": ops, "task": task}


def _numeric_leaves(value, steps=(), path="", array=None):
    """(steps, path, array field) of every number in a program, bools aside;
    the array field is the path of the op array that holds it, or None."""
    if isinstance(value, dict):
        for key, item in value.items():
            sub = f"{path}.{key}" if path else key
            yield from _numeric_leaves(item, (*steps, key), sub, sub if key in ARRAY_FIELDS else array)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _numeric_leaves(item, (*steps, k), f"{path}[{k}]", array)
    elif type(value) in (int, float):
        yield steps, path, array


def _main_on(text, path):
    """(exit code, stdout, stderr) of ``gsim run`` on the program ``text``."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), number=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "true"]))
def test_a_bad_number_anywhere_is_named_by_its_reader(data, number, tmp_path_factory):
    # each reader refuses a non-finite number or a bool where a number goes,
    # naming the leaf; a bool inside an op array names the array's field
    program = data.draw(_leaf_programs())
    where = tmp_path_factory.mktemp("leaf") / "prog.json"
    with pytest.MonkeyPatch.context() as mp:  # the program types, lowers and builds its state
        mp.setattr(cli, "_perform", lambda *args: (0.0, None))
        code, _, err = _main_on(json.dumps(program), where)
    assert code == 0, err
    steps, path, array = data.draw(st.sampled_from(list(_numeric_leaves(program))))
    bad = parent = json.loads(json.dumps(program))
    for step in steps[:-1]:
        parent = parent[step]
    parent[steps[-1]] = "@LEAF@"
    code, out, err = _main_on(json.dumps(bad).replace('"@LEAF@"', number), where)
    named = array if number == "true" and array is not None else path
    assert (code, out) == (2, ""), err
    assert err.count("\n") == 1 and err.startswith(f"validation error: {named}: "), err


@pytest.mark.parametrize(
    "argv, header, row",
    [
        (["extent"], "extent_upper,l1_squared,norm_squared,rank", [1.76159415595576, 1.76159415595576, 1.0, 2]),
        (["bs-bound", "--mbar", "3"], "extent_bound,nonclassicality_bound", [9.16257987114711, 20.0855369231877]),
        (["born"], "task,value,seed", ["exact_born", 0.206282082090870, 0]),
        (["norm", "--seed", "3"], "task,value,seed", ["norm", 0.999999999999999, 3]),
        (["breed-bound", "--xi", "7.496"], "task,value,seed", ["breed_bound", 4, 0]),
    ],
)
def test_csv_rows_of_dict_and_scalar_values(argv, header, row, capsys):
    code, out, err = run_cli([*argv, "--format", "csv"], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0] == header
    for got, want in zip(lines[1].split(","), row):
        assert got == want if isinstance(want, str) else float(got) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "program, message",
    [
        ([], "program: expected an object"),
        ({"ops": [1]}, "ops[0]: expected an object"),
        ({"ops": [{"gate": "symplectic", "matrix": [[1, 0], [0]]}]}, "ops[0].matrix: expected an array of finite numbers"),
        ({"ops": [{"gate": "beamsplitter", "modes": [0, 1], "theta": 0.3}]}, "ops[0]: gate BeamSplitter("),
        ({"ops": [{"gate": "condition", "modes": [0], "outcome": [0.1]}]}, "ops[0]: conditioning must leave at least one mode"),
        (
            {"modes": 2, "ops": [{"gate": "condition", "modes": [1], "outcome": [[1e200, 0]]}]},
            "ops[0].outcome: modulus 1e+200 is too large: its square overflows",
        ),
        # every alpha reader, in ops and in initial, takes the outcome's rule: |alpha|^2 must not overflow
        ({"ops": [{"gate": "displace", "mode": 0, "alpha": [1e200, 0]}]}, "ops[0].alpha: modulus 1e+200 is too large: its square overflows"),
        ({"ops": [{"gate": "displace", "mode": 0, "alpha": [1e154, 1e154]}]}, "ops[0].alpha: modulus 1.41e+154 is too large: its square overflows"),
        ({"initial": {"kind": "coherent", "alpha": [0, 1e200]}}, "initial.alpha: modulus 1e+200 is too large: its square overflows"),
        ({"initial": {"kind": "cat", "alpha": -1e200}}, "initial.alpha: modulus 1e+200 is too large: its square overflows"),
        ({"initial": {"kind": "squeezed", "r": 0.3, "alpha": [1e200, 1.0]}}, "initial.alpha: modulus 1e+200 is too large: its square overflows"),
        # an entry that is no finite number keeps its own name
        ({"initial": {"kind": "cat", "alpha": [1.0, "x"]}}, "initial.alpha[1]: expected a finite number"),
    ],
)
def test_malformed_program_errors_name_their_path(program, message, tmp_path, capsys):
    # a range error of an op (a one-mode beamsplitter, a condition on every mode) names its op too
    if isinstance(program, dict):
        program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": "extent"}, **program}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"validation error: {message}")


@pytest.mark.parametrize(
    "program, message",
    [
        ({"initial": {"kind": "coherent", "aplha": 1.0}}, "initial.aplha: unknown field of kind 'coherent'"),
        ({"initial": {"kind": "vacuum", "alpha": 1.0}}, "initial.alpha: unknown field of kind 'vacuum'"),
        ({"initial": {"kind": "grid", "N": 4}}, "initial.N: unknown field of kind 'grid'"),
        ({"ops": [{"gate": "squeeze", "mode": 0, "r": 0.2, "thetaa": 0.1}]}, "ops[0].thetaa: unknown field of gate 'squeeze'"),
        ({"ops": [{"gate": "displace", "mode": 0, "alpha": 0.1, "r": 0.2}]}, "ops[0].r: unknown field of gate 'displace'"),
        ({"task": {"name": "norm", "epsilom": 0.01}}, "task.epsilom: unknown field of task 'norm'"),
        ({"sead": 3}, "sead: unknown field"),
    ],
)
def test_misspelt_and_unread_fields_exit_2(program, message, tmp_path, capsys):
    # a field no reader takes, or one the initial kind or the gate does not
    # read, would otherwise run the program as if it were absent (exit 0)
    program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": "exact_born", "outcome": [1.0]}, **program}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == f"validation error: {message}\n"


def test_every_read_field_is_known(tmp_path, capsys):
    # every field that each of the 7 initial kinds and each of the 7 gates
    # reads passes the unknown-field check
    initials = [
        {"kind": "vacuum"},
        {"kind": "coherent", "alpha": [0.2, 0.1]},
        {"kind": "squeezed", "r": 0.3, "theta": 0.2, "alpha": 0.1},
        {"kind": "cat", "alpha": 1.0, "parity": "-"},
        {"kind": "gkp", "d": 2, "mu": 0, "kappa": 0.9, "delta": 0.6, "s_max": 1},
        {"kind": "grid", "delta": 0.5},
        {"kind": "fock1_ring", "seed_state": "coherent", "N": 2},
    ]
    ops = [
        {"gate": "displace", "mode": 0, "alpha": 0.1},
        {"gate": "squeeze", "mode": 1, "r": 0.2, "theta": 0.3},
        {"gate": "phase", "mode": 0, "theta": 0.4},
        {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.5, "phi": 0.6},
        {"gate": "symplectic", "matrix": np.eye(4).tolist(), "shift": [0.1, 0.0, 0.0, 0.2]},
        {"gate": "channel", "X": np.eye(4).tolist(), "Y": (0.1 * np.eye(4)).tolist(), "D": [0.0, 0.1, 0.0, 0.0]},
        {"gate": "condition", "modes": [1], "outcome": [[0.1, 0.2]]},
    ]
    task = {"name": "exact_born", "outcome": [[0.2, -0.1]]}
    for initial in initials:
        program = {"schema_version": 1, "modes": 2, "seed": 1, "initial": initial, "ops": ops, "task": task}
        code, _, err = _run_program(program, tmp_path, capsys)
        assert code == 0, err
    assert {name for names in cli.KIND_FIELDS.values() for name in names} < set(cli.INITIAL_FIELDS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extent", "--state", "coherent", "--alpha", "abc"], "argument --alpha: invalid float value: 'abc'"),
        (["born", "--outcome", "1"], "argument --outcome: expected re,im, got '1'"),
    ],
)
def test_malformed_float_flags_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == "" and message in captured.err


def test_user_paths_build_no_per_term_objects(monkeypatch, tmp_path, capsys):
    # every user path builds its ket stacks through `stellar`: no superposition
    # from (coefficient, term) entries and no per-term GaussianPure (the ring
    # seeds that fock1_ring takes are triples)
    from gsim import gaussian, states

    def refuse(*args, **kwargs):
        raise AssertionError("a user path built a per-term object")

    monkeypatch.setattr(states.Superposition, "__init__", refuse)
    monkeypatch.setattr(states.Superposition, "_terms", property(refuse))
    monkeypatch.setattr(gaussian.GaussianPure, "__init__", refuse)
    monkeypatch.setattr(gaussian.GaussianPure, "from_triple", refuse)
    monkeypatch.setattr(gaussian.GaussianPure, "from_checked_triple", refuse)
    kinds = [
        VACUUM,
        {"kind": "coherent", "alpha": [0.4, -0.3]},
        {"kind": "squeezed", "r": 0.4, "theta": 0.5, "alpha": 0.3},
        {"kind": "cat", "alpha": 1.1, "parity": "-"},
        {"kind": "gkp"},
        {"kind": "grid"},
        {"kind": "fock1_ring", "N": 4},
        {"kind": "fock1_ring", "N": 4, "seed_state": "coherent"},
    ]
    for modes in (1, 2):
        outcome = [[0.2, -0.1]] * modes
        tasks = [
            {"name": "exact_born", "outcome": outcome},
            {"name": "norm"},
            {"name": "approx_born", "outcome": outcome, "delta": 0.3},
            {"name": "extent"},
        ]
        for initial in kinds:
            for task in tasks:
                program = {"schema_version": 1, "modes": modes, "seed": 4, "initial": initial, "task": task,
                           "ops": [{"gate": "squeeze", "mode": modes - 1, "r": 0.2}]}
                code, _, err = _run_program(program, tmp_path, capsys)
                assert code == 0, (modes, initial, task, err)
    channel = {"gate": "channel", "X": (0.9 * np.eye(2)).tolist(), "Y": (0.2 * np.eye(2)).tolist()}
    program = {"schema_version": 1, "modes": 1, "initial": CAT, "ops": [channel], "task": {"name": "exact_born", "outcome": [0.1]}}
    code, _, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    assert states.witness_check(states.fock1_ring(states.optimal_fock1_seed(), 4), states.optimal_fock1_witness()).all_equal
    assert states.cat_state(0).rank == 1


def _document(program, tmp_path, capsys):
    """The result document of a program, without its path."""
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, (program, err)
    doc = json.loads(out)
    del doc["inputs"]["program"]
    return doc


# every defaulted field of each initial kind, gate and task, spelled out with
# the value that a program without it runs with (the documented defaults);
# a GKP word's s_max has none, as it is the least that meets states.TAIL_TOL
SPELLED_INITIAL = {
    "vacuum": {},
    "coherent": {"alpha": 0},
    "squeezed": {"r": 0.0, "theta": 0.0, "alpha": [0, 0]},
    "cat": {"alpha": 1.0, "parity": "+"},
    "gkp": {"d": 2, "mu": 0, "kappa": 0.3, "delta": 0.3},
    "grid": {"delta": 0.3},
    "fock1_ring": {"seed_state": "optimal", "N": 16},
}
SPELLED_GATES = {
    "displace": ({"mode": 1, "alpha": [0.2, -0.1]}, {}),
    "squeeze": ({"mode": 1, "r": 0.3}, {"theta": 0.0}),
    "phase": ({"mode": 0, "theta": 0.4}, {}),
    "beamsplitter": ({"modes": [0, 1], "theta": 0.5}, {"phi": 0.0}),
    "symplectic": ({"matrix": np.diag([1.2, 1 / 1.2, 1, 1]).tolist()}, {"shift": [0, 0, 0, 0]}),
    "channel": ({"X": (0.9 * np.eye(4)).tolist(), "Y": (0.19 * np.eye(4)).tolist()}, {"D": [0, 0, 0, 0]}),
    "condition": ({"modes": [1], "outcome": [[0.1, 0.2]]}, {}),
}
SPELLED_TASKS = {
    "exact_born": ({"outcome": [[0.2, -0.1]]}, {}),
    "approx_born": ({"outcome": [[0.2, -0.1]]}, {"delta": 0.1, "epsilon": 0.1, "pfail": 0.05}),
    "norm": ({}, {"epsilon": 0.1, "pfail": 0.05}),
    "extent": ({}, {}),
    "breed_bound": ({"xi": 7.496}, {}),
    "bs_bound": ({"mbar": 3}, {"sweep": False}),
    "optimize_fidelity": ({}, {"mode": "two", "restarts": 32, "budget": 20000}),
    "table1": ({}, {"deltas": [0.3, 0.2, 0.1, 0.05, 0.025, 0.01]}),
}


def _defaulted(table):
    return {key for key, default in table.items() if default is not cli.REQUIRED and default is not None}


def test_the_tables_name_every_defaulted_field():
    assert {kind: _defaulted(t) for kind, t in cli.KIND_FIELDS.items()} == {k: set(v) for k, v in SPELLED_INITIAL.items()}
    assert {gate: _defaulted(t) for gate, t in cli.GATE_FIELDS.items()} == {
        gate: set(spelled) - {"shift", "D"} for gate, (_, spelled) in SPELLED_GATES.items()
    }
    assert {name: _defaulted(t) for name, t in cli.NAME_FIELDS.items()} == {
        name: set(spelled) for name, (_, spelled) in SPELLED_TASKS.items()
    }


@pytest.mark.parametrize("kind", sorted(SPELLED_INITIAL))
def test_an_initial_default_is_the_value_spelled_out(kind, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "seed": 2, "task": {"name": "exact_born", "outcome": [[0.2, -0.1]]}}
    want = _document({**program, "initial": {"kind": kind}}, tmp_path, capsys)
    for key, value in SPELLED_INITIAL[kind].items():
        assert _document({**program, "initial": {"kind": kind, key: value}}, tmp_path, capsys) == want, key


@pytest.mark.parametrize("gate", sorted(SPELLED_GATES))
def test_a_gate_default_is_the_value_spelled_out(gate, tmp_path, capsys):
    fields, spelled = SPELLED_GATES[gate]
    system = 1 if gate == "condition" else 2
    program = {"schema_version": 1, "modes": 2, "seed": 2, "initial": {"kind": "cat", "alpha": [0.8, 0.3]},
               "task": {"name": "exact_born", "outcome": [[0.2, -0.1]] * system}}
    want = _document({**program, "ops": [{"gate": gate, **fields}]}, tmp_path, capsys)
    for key, value in spelled.items():
        assert _document({**program, "ops": [{"gate": gate, **fields, key: value}]}, tmp_path, capsys) == want, key


@pytest.mark.parametrize("name", sorted(SPELLED_TASKS))
def test_a_task_default_is_the_value_spelled_out(name, tmp_path, capsys):
    fields, spelled = SPELLED_TASKS[name]
    program = {"schema_version": 1, "modes": 1, "seed": 2, "initial": CAT}
    want = _document({**program, "task": {"name": name, **fields}}, tmp_path, capsys)
    for key, value in spelled.items():
        assert _document({**program, "task": {"name": name, **fields, key: value}}, tmp_path, capsys) == want, key
    if name == "exact_born":  # and the top level's defaults: seed 0, no ops
        bare = {"schema_version": 1, "modes": 1, "initial": CAT, "task": {"name": name, **fields}}
        want = _document(bare, tmp_path, capsys)
        assert _document({**bare, "seed": 0, "ops": []}, tmp_path, capsys) == want


# a value of the right type for every task field
TASK_VALUES = {"outcome": [[0.1, 0.0]], "deltas": [0.3], "mode": "two", "sweep": True, "delta": 0.1,
               "epsilon": 0.1, "pfail": 0.05, "xi": 7.5, "mbar": 2, "restarts": 2, "budget": 100}


@pytest.mark.parametrize("name", sorted(SPELLED_TASKS))
def test_a_task_rejects_every_field_it_does_not_read(name, tmp_path, capsys):
    assert set(TASK_VALUES) == set(cli.TASK_FIELDS) - {"name"}
    fields = SPELLED_TASKS[name][0]
    unread = [key for key in TASK_VALUES if key not in cli.NAME_FIELDS[name]]
    assert unread
    for key in unread:
        program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": name, **fields, key: TASK_VALUES[key]}}
        code, out, err = _run_program(program, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == f"validation error: task.{key}: unknown field of task {name!r}\n"


@pytest.mark.parametrize(
    "task, message",
    [
        ({"name": "exact_born", "outcome": [1], "delta": 0.01}, "task.delta: unknown field of task 'exact_born'"),
        ({"name": "extent", "delta": 0.5, "outcome": [1]}, "task.delta: unknown field of task 'extent'"),
        ({"name": "exact_born", "outcome": [1], "delta": 0.01, "restarts": 3}, "task.delta: unknown field of task 'exact_born'"),
    ],
)
def test_an_unread_task_field_is_no_longer_a_no_op(task, message, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": task}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "program, message",
    [
        ({"initial": {"kind": "vacuum", "alpha": "x"}}, "initial.alpha: unknown field of kind 'vacuum'"),
        ({"sead": 3, "modes": "x"}, "sead: unknown field"),
        ({"task": {"name": "norm", "epsilom": 0.01, "pfail": "x"}}, "task.epsilom: unknown field of task 'norm'"),
        ({"ops": [{"gate": "phase", "mode": "x", "thetaa": 0.1}]}, "ops[0].thetaa: unknown field of gate 'phase'"),
    ],
)
def test_an_unknown_field_is_reported_before_any_mistyped_one(program, message, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "initial": VACUUM, "task": {"name": "extent"}, **program}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == f"validation error: {message}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_tables_exit_2(fmt, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "task": {"name": "table1", "deltas": []}}
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, out, err = run_cli(["run", str(path), "--format", fmt], capsys)
    assert code == 2 and out == ""
    assert err == "validation error: task.deltas: expected a nonempty list of numbers\n"
    code, out, err = run_cli(["bs-bound", "--mbar", "0", "--sweep", "--format", fmt], capsys)
    assert code == 2 and out == ""
    assert err == "validation error: task.mbar: a sweep needs an mbar of at least 1\n"
    code, out, err = run_cli(["bs-bound", "--mbar", "0", "--format", fmt], capsys)  # unswept, mbar 0 is a bound
    assert code == 0, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extent", "--state", "fock1-ring", "--ring-n", "1"], "initial: ring size must be at least 2"),
        (["bs-bound", "--mbar", "-1"], "task: photon count must be nonnegative"),
        (["extent", "--state", "gkp", "--grid-delta", "0"], "initial: delta must be positive and finite, got 0.0"),
        (["extent", "--state", "gkp", "--grid-delta=-0.3"], "initial: delta must be positive and finite, got -0.3"),
        (["born", "--state", "cat", "--outcome", "1e200,0"], "task.outcome: modulus 1e+200 is too large: its square overflows"),
        (["norm", "--state", "coherent", "--alpha", "1e200"], "initial.alpha: modulus 1e+200 is too large: its square overflows"),
        (["extent", "--state", "cat", "--alpha=-1.4e154"], "initial.alpha: modulus 1.4e+154 is too large: its square overflows"),
    ],
)
def test_range_errors_name_the_initial_state_or_the_task(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"validation error: {message}\n"


def test_a_far_conditioning_outcome_keeps_working(tmp_path, capsys):
    # at |xi| = 40 every weight is about e^-1600, far below the smallest
    # double, yet conditioning keeps their ratios and exact_born its value;
    # the projected norm e^log_scale times the conditioned one underflows to 0
    program = {
        "schema_version": 1,
        "modes": 2,
        "initial": {"kind": "cat", "alpha": 1.0},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[40, 0]]},
        ],
        "task": {"name": "exact_born", "outcome": [[0.2, 0.1]]},
    }
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    assert json.loads(out)["value"] == pytest.approx(0.11013559295680198, rel=1e-12)
    code, out, err = _run_program({**program, "task": {"name": "norm"}}, tmp_path, capsys)
    assert code == 0, err
    assert (json.loads(out)["value"], json.loads(out)["error_band"]) == (0.0, [0.0, 0.0])


def _far_program(initial, outcome, task):
    return {
        "schema_version": 1,
        "modes": 2,
        "initial": initial,
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [outcome]},
        ],
        "task": task,
    }


def _zero_born(doc):
    assert (doc["value"], doc["error_band"]) == (0.0, [0.0, 0.0])


def _cat_extent(doc):
    assert doc["value"]["extent_upper"] == 2.0
    lo, hi = doc["error_band"]
    assert lo <= 2.0 <= hi


def _unit_norm(doc):
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi and lo <= 1.0 <= hi and doc["value"] == pytest.approx(1.0, rel=1e-15)


def _tiny_delta_table(doc):
    (row,) = doc["value"]
    naive = math.sqrt(2.0) / row["delta"]
    assert row["naive_extent"] == pytest.approx(naive, rel=1e-12)
    assert row["one_sided_extent"] == pytest.approx(naive / 2, rel=1e-12)


# far outcomes, far displacements, a far conditioning outcome, a tiny
# epsilon and a tiny grid delta: (input, exit code, check of the document or
# a fragment of the one stderr line)
FAR_CASES = {
    "born-cat-outcome-9e153": (["born", "--state", "cat", "--outcome", "9e153,0"], 0, _zero_born),
    "born-cat-outcome-1.3e154": (["born", "--state", "cat", "--outcome", "1.3e154,0"], 0, _zero_born),
    "born-cat-outcome-7e153": (["born", "--state", "cat", "--outcome", "7e153,0"], 0, _zero_born),
    "born-coherent-1e154": (["born", "--state", "coherent", "--alpha", "1e154"], 0, _zero_born),
    "extent-cat-5e153": (["extent", "--state", "cat", "--alpha", "5e153"], 0, _cat_extent),
    "extent-cat-1e154": (["extent", "--state", "cat", "--alpha", "1e154"], 0, _cat_extent),
    "norm-cat-5e153": (["norm", "--state", "cat", "--alpha", "5e153"], 0, _unit_norm),
    "norm-cat-1e154": (["norm", "--state", "cat", "--alpha", "1e154"], 0, _unit_norm),
    "born-band-overflows": (
        ["born", "--state", "cat", "--alpha", "1e100", "--outcome", "1e100,0"],
        3,
        "numerical failure: amplitude 0.707 has a rounding bound",
    ),
    "condition-squeezed-norm": (
        _far_program({"kind": "squeezed", "r": 0.5}, [1.3e154, 0], {"name": "norm"}),
        0,
        _zero_born,
    ),
    "condition-grid-born": (
        _far_program({"kind": "grid", "delta": 0.3}, [9e153, 0], {"name": "exact_born", "outcome": [[0.1, 0]]}),
        3,
        "numerical failure: overlap kernel: a value or its rounding bound is not finite",
    ),
    "norm-epsilon-1e-200": (["norm", "--epsilon", "1e-200"], 2, "validation error: task: epsilon = 1e-200 is too small"),
    "norm-epsilon-1e-160": (["norm", "--epsilon", "1e-160"], 2, "validation error: task: epsilon = 1e-160 is too small"),
    "approx-epsilon-1e-160": (
        ["born", "--approx", "--epsilon", "1e-160"],
        2,
        "validation error: task: epsilon = 1e-160 is too small",
    ),
    "norm-epsilon-1e-100": (["norm", "--epsilon", "1e-100"], 0, _unit_norm),
    "table1-1e-200": (["table1", "--deltas", "1e-200"], 0, _tiny_delta_table),
    "table1-1e-300": (["table1", "--deltas", "1e-300"], 0, _tiny_delta_table),
}


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_far_inputs_end_cleanly(case, tmp_path, capsys):
    given, want_code, want = FAR_CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(given, capsys) if isinstance(given, list) else _run_program(given, tmp_path, capsys)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == want_code and "RuntimeWarning" not in err, err
    if isinstance(want, str):
        assert out == "" and err.startswith(want) and err.count("\n") == 1, err
    else:
        assert err == ""
        want(json.loads(out))


@pytest.mark.parametrize(
    "initial, want",
    [
        ({"kind": "coherent", "alpha": [1e8, 1e8]}, 1 / math.pi),
        ({"kind": "cat", "alpha": [1e8, 1e8]}, 0.5 / math.pi),
        ({"kind": "squeezed", "r": 0.5, "alpha": [3e7, 4e7]}, 1 / (math.pi * math.cosh(0.5))),
    ],
    ids=["coherent", "cat", "squeezed"],
)
def test_far_complex_displacements_build(initial, want, tmp_path, capsys):
    # log |c| near -1e16, where Re log c and its closed form round about an ulp
    # (2) apart: the Born density at the displacement lies within its band
    program = {"schema_version": 1, "modes": 1, "initial": initial, "task": {"name": "exact_born", "outcome": [initial["alpha"]]}}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0 and err == "", err
    doc = json.loads(out)
    lo, hi = doc["error_band"]
    assert lo <= doc["value"] <= hi and lo <= want <= hi


def test_a_numerical_failure_of_the_task_keeps_its_message(capsys):
    # the odd cat at alpha 1e-8: its Gram form is inside its rounding bound
    code, out, err = run_cli(["extent", "--state", "cat", "--parity", "-", "--alpha", "1e-8"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and "task:" not in err


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_blocks(lang):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), flags=re.S | re.M)


def test_readme_programs_run(tmp_path, capsys):
    programs = [json.loads(block) for block in _readme_blocks("json")]
    assert len(programs) == 2
    for program in programs:
        _document(program, tmp_path, capsys)


def test_readme_command_lines_run(capsys):
    (block,) = [b for b in _readme_blocks("") if b.startswith("gsim extent")]
    lines = [shlex.split(line)[1:] for line in block.splitlines()]
    assert ["run", "program.json"] in lines and len(lines) == 8
    for argv in lines:
        if argv != ["run", "program.json"]:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)


def test_readme_shows_the_program_that_born_records(capsys):
    argv = ["born", "--state", "cat", "--alpha", "1.0", "--outcome", "0.3,-0.2", "--approx", "--seed", "7"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    shown = [json.loads(block) for block in _readme_blocks("json")]
    assert json.loads(out)["inputs"]["program"] == next(p for p in shown if p["task"]["name"] == "approx_born")
