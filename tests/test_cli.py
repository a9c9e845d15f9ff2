import io
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsim import cli, fock, stellar
from gsim.gates import BeamSplitter, Squeeze


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extent_document_and_schema(capsys):
    code, out, _ = run_cli(["extent", "--state", "cat", "--alpha", "1.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, cli.RESULT_SCHEMA)
    assert abs(doc["value"]["extent_upper"] - 1.76160) < 1e-4


def test_determinism_byte_identical(capsys):
    argv = ["born", "--state", "cat", "--alpha", "1.0", "--approx", "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    doc = json.loads(first)
    jsonschema.validate(doc, cli.RESULT_SCHEMA)
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
    jsonschema.validate(doc, cli.RESULT_SCHEMA)
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


def test_channel_requires_rank_one(tmp_path, capsys):
    program = {
        "schema_version": 1,
        "modes": 1,
        "initial": {"kind": "cat", "alpha": 1.0},
        "ops": [
            {
                "gate": "channel",
                "X": [[1, 0], [0, 1]],
                "Y": [[1, 0], [0, 1]],
                "D": [0, 0],
            }
        ],
        "task": {"name": "exact_born", "outcome": [[0.0, 0.0]]},
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    code, _, _ = run_cli(["run", str(path)], capsys)
    assert code == 2


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


def test_cli_import_leaves_out_the_optimizer():
    # scipy.optimize is imported by the optimizer alone, not by every gsim process
    result = run_python(["-c", "import sys, gsim.cli; print('scipy.optimize' in sys.modules)"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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


@pytest.mark.parametrize(
    "task, value, band",
    [
        (
            {"name": "approx_born", "outcome": [[0.2, 0.1]]},
            0.014322912318094629,
            [0.012890621086285166, 0.015755203549904093],
        ),
        ({"name": "norm"}, 0.661045227016528, [0.6009502063786618, 0.7344946966850311]),
    ],
)
def test_conditioned_approximate_tasks_form_no_gram(task, value, band, tmp_path, capsys):
    # conditioning returns a log scale, not a weight read from the conditioned
    # state's rank-64 Gram (2016 overlaps), and the approximate tasks read no
    # Gram: linear in the rank from the ring to the result
    program = {
        "schema_version": 1,
        "modes": 2,
        "seed": 3,
        "initial": {"kind": "fock1_ring", "N": 32},
        "ops": [
            {"gate": "beamsplitter", "modes": [0, 1], "theta": 0.6},
            {"gate": "condition", "modes": [1], "outcome": [[0.4, -0.2]]},
        ],
        "task": task,
    }
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["counters"]["overlap_evals"] == 0
    assert doc["value"] == pytest.approx(value, rel=1e-12)
    assert doc["error_band"] == pytest.approx(band, rel=1e-12)


def test_bs_bound_sweep_checks_the_photon_count(capsys):
    for argv in (["--mbar", "-3"], ["--mbar", "-3", "--sweep"]):
        code, out, err = run_cli(["bs-bound", *argv], capsys)
        assert code == 2 and out == ""
        assert "photon count must be nonnegative" in err


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
    jsonschema.validate(doc, cli.RESULT_SCHEMA)
    jsonschema.validate(run_doc, cli.RESULT_SCHEMA)
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
    # a one-element shift on one mode is neither dropped (pure) nor broadcast (mixed)
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
    assert code == 2
    assert out == "" and "delta must be positive" in err


@pytest.mark.parametrize("flags", [["--restarts", "0"], ["--restarts", "-3"], ["--budget", "0"]])
def test_optimizer_counts_below_one_are_validation_errors(flags, monkeypatch, capsys):
    import threading

    def no_pool(*args, **kwargs):
        raise AssertionError("an invalid optimizer configuration started a thread pool")

    monkeypatch.setattr(cli.apps, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    code, out, err = run_cli(["optimize-fidelity", *flags], capsys)
    assert code == 2, err
    assert out == "" and "must be at least 1" in err
    assert threading.active_count() == before


MISSING = object()  # a field left out of the program


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"task": {"name": "table1", "deltas": 0.1}}, "task.deltas"),
        ({"task": {"name": "breed_bound", "xi": None}}, "task.xi"),
        ({"initial": {"kind": "grid", "delta": 0.3, "t_max": "3"}, "task": {"name": "extent"}}, "initial.t_max"),
        *(
            ({"initial": VACUUM, "ops": ops, "task": {"name": "extent"}}, path)
            for ops, path in (
                ([{"gate": "phase", "mode": 0, "theta": None}], "ops[0].theta"),
                ([{"gate": "displace", "mode": 0, "alpha": [None, 0.0]}], "ops[0].alpha"),
                ([{"gate": "squeeze", "mode": 0}], "ops[0].r"),
                ([{"gate": "phase", "mode": 0.7, "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "phase", "mode": "0", "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "phase", "mode": True, "theta": 0.1}], "ops[0].mode"),
                ([{"gate": "beamsplitter", "modes": [0, 1.0], "theta": 0.3}], "ops[0].modes"),
                ([{"gate": "symplectic", "matrix": [[1, 0], [0, "1"]]}], "ops[0].matrix"),
                ([{"gate": "phase", "mode": 0, "theta": 0.1}, {"gate": "condition", "modes": 1}], "ops[1].modes"),
                ([{"gate": "condition", "modes": [0], "outcome": [[0, True]]}], "ops[0].outcome"),
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
    ],
)
def test_mistyped_program_fields_are_validation_errors(fields, path, tmp_path, capsys):
    program = {key: value for key, value in {"schema_version": 1, "modes": 1, **fields}.items() if value is not MISSING}
    code, out, err = _run_program(program, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and err.startswith(f"validation error: {path}: ")


@pytest.mark.parametrize("t_max", [3.5, -2])
def test_grid_t_max_must_be_a_non_negative_integer(t_max, tmp_path, capsys):
    program = {"schema_version": 1, "modes": 1, "initial": {"kind": "grid", "delta": 0.3, "t_max": t_max}}
    code, out, err = _run_program({**program, "task": {"name": "extent"}}, tmp_path, capsys)
    assert code == 2, err
    assert out == "" and "t_max" in err


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
    from gsim import gaussian, simulator

    calls = {"evolve": 0, "check_normalised": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    state = _initial(CAT, 2)
    monkeypatch.setattr(simulator, "evolve", counted("evolve", simulator.evolve))
    check = counted("check_normalised", gaussian.check_normalised)
    for module in (gaussian, simulator, cli.states):
        monkeypatch.setattr(module, "check_normalised", check)
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
    from gsim.gates import beamsplitter_unitary
    from gsim.symplectic import passive_from_unitary

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
    return cli._run_segments(state, cli.lower_ops(ops, modes))


def _per_op(state, ops, modes):
    """The op list one op at a time: every gate op is its own run and evolve."""
    for op in ops:
        state = _all_ops(state, [op], modes)
        modes -= len(op["modes"]) if op["gate"] == "condition" else 0
    return state


def _bits(state):
    if isinstance(state, cli.Superposition):
        t = state.triples
        return [x.tobytes() for x in (state.coeffs, t.a, t.b, t.log_c)]
    return [state.cov.tobytes(), state.mean.tobytes()]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pipeline=st.sampled_from(["pure", "condition", "mixed"]))
def test_folded_gate_runs_equal_one_evolve_per_gate(data, pipeline):
    # the fold applies the same gates in the same order, so every triple and
    # the whole result document are bit-identical to a per-gate evolve
    small = st.floats(-0.6, 0.6)
    xi, alpha = (complex(data.draw(small), data.draw(small)) for _ in range(2))
    initial = {"kind": "coherent" if pipeline == "mixed" else "cat", "alpha": [alpha.real + 0.4, alpha.imag]}
    middle, modes = [], 2
    if pipeline == "condition":
        middle, modes = [{"gate": "condition", "modes": [1], "outcome": [[xi.real, xi.imag]]}], 1
    elif pipeline == "mixed":
        middle = [{"gate": "channel", "X": (0.9 * np.eye(4)).tolist(), "Y": (0.2 * np.eye(4)).tolist()}]
    ops = data.draw(_gate_ops(2)) + middle + data.draw(_gate_ops(modes))
    task = {"name": "exact_born", "outcome": [[xi.imag, xi.real]] * modes}
    got = []
    for run in (_all_ops, _per_op):
        cli.counters.tally.reset()
        state = run(_initial(initial, 2), ops, 2)
        value, band = cli._perform(state, cli.read_task(task), 0)
        doc = cli.result_document("exact_born", {"ops": ops}, value, band, 0)
        got.append((_bits(state), cli.emit(doc, "json", out=io.StringIO())))
    assert got[0] == got[1]
