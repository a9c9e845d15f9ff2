"""Command-line surface: circuit programs, measure reports and bounds.

Programs are JSON documents typed field by field; results are deterministic
JSON or CSV documents carrying the task value, error band, work counters and
the seed.  Exit codes: 0 success, 2 parse/validation error, 3 numerical failure
or an array too large to allocate.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import apps, counters, simulator, states, stellar
from .exceptions import DimensionMismatch, GsimError, IllConditioned
from .gates import BeamSplitter, Displace, GaussianChannel, PhaseShift, Squeeze, Symplectic, block_diag, check_gate_modes, is_symplectic
from .states import Superposition
from .stellar import GaussianUnitary

SCHEMA_VERSION = 1

# tasks that take no state, so their programs need no ``initial``
STATE_FREE_TASKS = ("breed_bound", "bs_bound", "optimize_fidelity", "table1")


class ValidationFailure(ValueError):
    pass


def _real(value, where: str, expected: str = "a finite number") -> float:
    """``value`` as a float, if it is a finite number (a bool is none)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationFailure(f"{where}: expected {expected}")


def _json_type(kind: type, name: str, value, where: str):
    """``value`` if its type is ``kind`` exactly: a bool is no integer, and neither is ``2.0``."""
    if type(value) is not kind:
        raise ValidationFailure(f"{where}: expected {name}")
    return value


_integer = functools.partial(_json_type, int, "an integer")
_boolean = functools.partial(_json_type, bool, "true or false")
_object = functools.partial(_json_type, dict, "an object")
_list = functools.partial(_json_type, list, "a list")


def _choice(*choices):
    """Reader of one of ``choices``, strings or integers (never a float or a bool)."""

    def read(value, where: str):
        if type(value) in (str, int) and value in choices:
            return value
        raise ValidationFailure(f"{where}: expected one of {', '.join(map(repr, choices))}")

    return read


def _mode_count(value, where: str) -> int:
    if _integer(value, where) < 1:
        raise ValidationFailure(f"{where}: expected an integer of at least 1")
    return value


def _complex_from(value, where: str) -> complex:
    """A finite number, or an [re, im] pair of them (named ``where[0]`` and
    ``where[1]``), as a complex."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], f"{where}[0]"), _real(value[1], f"{where}[1]"))
    return complex(_real(value, where, "a finite number or [re, im] pair"))


def _complex_vector(value, where: str, one: bool = False):
    """A list of complex entries whose squared modulus sum_k |xi_k|^2 does not overflow,
    or with ``one`` a single such entry named ``where``: an ``alpha``, a displacement."""
    vector = [_complex_from(value, where)] if one else [_complex_from(v, f"{where}[{k}]") for k, v in enumerate(_list(value, where))]
    modulus = math.hypot(*(part for z in vector for part in (z.real, z.imag)))
    if not modulus * modulus <= sys.float_info.max:
        raise ValidationFailure(f"{where}: modulus {modulus:.3g} is too large: its square overflows")
    return vector[0] if one else vector


def _reals(value, where: str) -> list:
    """A nonempty list of finite numbers as floats, each named ``where[k]``;
    whether they are in range is the task's check."""
    if type(value) is not list or not value:
        raise ValidationFailure(f"{where}: expected a nonempty list of numbers")
    return [_real(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _integers(value, where: str) -> list:
    return [_integer(v, f"{where}[{k}]") for k, v in enumerate(_list(value, where))]


def _real_array(value, where: str) -> np.ndarray:
    """``value`` as a float array, if it nests numbers evenly (a bool is none,
    though numpy reads it as one) and they are finite, else an error naming the
    first non-finite entry by its index; its shape, which depends on the
    register, is checked as its op is lowered."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or any(type(v) is bool for v in np.asarray(value, dtype=object).flat):
        raise ValidationFailure(f"{where}: expected an array of finite numbers")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise ValidationFailure(f"{where}{''.join(f'[{k}]' for k in bad[0])}: expected a finite number")
    return arr.astype(float)


REQUIRED = object()  # a table's mark of a field that has no default


def _fields(fields, prefix: str, readers: dict, table: dict, by=None) -> dict:
    """The fields of the object ``fields`` that ``table`` names, typed by their
    ``readers`` in the readers' order and named ``prefix + key`` in an error,
    and the table's default of each one left out (a ``REQUIRED`` one reads as
    null, which its reader rejects).  With ``by = (key, noun)`` the field ``key``
    is typed first and picks the table ``table[value]``.  Any other field is
    unknown, an error raised before the table's fields are typed."""
    if type(fields) is not dict:
        raise ValidationFailure(f"{prefix.rstrip('.') or 'program'}: expected an object")
    typed, owner = {}, ""
    if by is not None:
        key, noun = by
        typed[key] = readers[key](fields.get(key), prefix + key)
        table, owner = table[typed[key]], f" of {noun} {typed[key]!r}"
    for key in fields:
        if key not in table and key not in typed:
            raise ValidationFailure(f"{prefix}{key}: unknown field{owner}")
    for key, read in readers.items():
        if key in table:
            typed[key] = read(fields.get(key), prefix + key) if key in fields or table[key] is REQUIRED else table[key]
    return typed


PROGRAM_FIELDS = {
    "schema_version": _choice(SCHEMA_VERSION),
    "modes": _mode_count,
    "seed": _integer,
    "initial": _object,
    "ops": _list,
    "task": _object,
}

# the default of each top-level field; a program without ``initial`` has no state
PROGRAM_DEFAULTS = {"schema_version": REQUIRED, "modes": REQUIRED, "seed": 0, "initial": None, "ops": (), "task": REQUIRED}

# every field that each initial kind reads besides ``kind``, and its default
KIND_FIELDS = {
    "vacuum": {},
    "coherent": {"alpha": 0j},
    "squeezed": {"r": 0.0, "theta": 0.0, "alpha": 0j},
    "cat": {"alpha": 1 + 0j, "parity": "+"},
    "gkp": {"d": 2, "mu": 0, "kappa": 0.3, "delta": 0.3, "s_max": None},  # no s_max: the least that meets states.TAIL_TOL
    "grid": {"delta": 0.3},
    "fock1_ring": {"seed_state": "optimal", "N": 16},
}

INITIAL_FIELDS = {
    "kind": _choice(*KIND_FIELDS),
    "alpha": functools.partial(_complex_vector, one=True),
    "parity": _choice("+", "-", 1, -1),
    "seed_state": _choice("optimal", "coherent"),
    **dict.fromkeys(("r", "theta", "kappa", "delta"), _real),
    **dict.fromkeys(("d", "mu", "s_max", "N"), _integer),
}

# every field that each task reads besides ``name``, and its default
NAME_FIELDS = {
    "exact_born": {"outcome": REQUIRED},
    "approx_born": {"outcome": REQUIRED, "delta": 0.1, "epsilon": 0.1, "pfail": 0.05},
    "norm": {"epsilon": 0.1, "pfail": 0.05},
    "extent": {},
    "breed_bound": {"xi": REQUIRED},
    "bs_bound": {"mbar": REQUIRED, "sweep": False},
    "optimize_fidelity": {"mode": "two", "restarts": 32, "budget": 20000},
    "table1": {"deltas": list(apps.GRID_EXTENT_TABLE)},
}

TASK_FIELDS = {
    "name": _choice(*NAME_FIELDS),
    "outcome": _complex_vector,
    "deltas": _reals,
    "mode": _choice("two", "single"),
    "sweep": _boolean,
    **dict.fromkeys(("delta", "epsilon", "pfail", "xi"), _real),
    **dict.fromkeys(("mbar", "restarts", "budget"), _integer),
}

# every field that each gate reads besides ``gate``, and its default; a
# vector left out (None) is zero on the register
GATE_FIELDS = {
    "displace": {"mode": REQUIRED, "alpha": REQUIRED},
    "squeeze": {"mode": REQUIRED, "r": REQUIRED, "theta": 0.0},
    "phase": {"mode": REQUIRED, "theta": REQUIRED},
    "beamsplitter": {"modes": REQUIRED, "theta": REQUIRED, "phi": 0.0},
    "symplectic": {"matrix": REQUIRED, "shift": None},
    "channel": {"X": REQUIRED, "Y": REQUIRED, "D": None},
    "condition": {"modes": REQUIRED, "outcome": REQUIRED},
}

OP_FIELDS = {
    "gate": _choice(*GATE_FIELDS),
    "mode": _integer,
    "modes": _integers,
    **dict.fromkeys(("matrix", "shift", "X", "Y", "D"), _real_array),
    "alpha": INITIAL_FIELDS["alpha"],
    **dict.fromkeys(("r", "theta", "phi"), _real),
    "outcome": _complex_vector,
}


# the typed fields of a program's ``initial`` and ``task`` objects, with the defaults of their kind and task
read_initial = functools.partial(_fields, prefix="initial.", readers=INITIAL_FIELDS, table=KIND_FIELDS, by=("kind", "kind"))
read_task = functools.partial(_fields, prefix="task.", readers=TASK_FIELDS, table=NAME_FIELDS, by=("name", "task"))


def _initial_state(init: dict, modes: int) -> Superposition:
    """The state that typed ``initial`` fields describe, padded to ``modes`` modes."""
    kind = init["kind"]
    if kind in ("vacuum", "coherent", "squeezed"):  # gates on a one-term vacuum stack
        gates = [Squeeze(0, init["r"], init["theta"])] if kind == "squeezed" else []
        if kind != "vacuum" and init["alpha"]:  # a zero displacement is the identity
            gates.append(Displace(0, init["alpha"]))
        vacuum = Superposition.from_stack(np.ones(1), stellar.vacuum(1, 1))
        sup = simulator.evolve(vacuum, GaussianUnitary(tuple(gates), 1))
    elif kind == "cat":
        sup = states.cat_state(init["alpha"], -1 if init["parity"] in ("-", -1) else 1)
    elif kind == "gkp":
        sup, _ = states.gkp_state(init["d"], init["mu"], init["kappa"], init["delta"], init["s_max"])
    elif kind == "grid":
        sup, _ = states.grid_sensor(init["delta"])
    else:  # fock1_ring
        seeds = {"optimal": states.optimal_fock1_seed, "coherent": states.coherent_ring_seed}
        sup = states.fock1_ring(seeds[init["seed_state"]](), init["N"])
    return _with_vacuum(sup, modes)


def _with_vacuum(sup: Superposition, modes: int) -> Superposition:
    """``sup`` on ``modes`` modes, vacuum appended: every term is tensored with
    the vacuum, whose overlap is 1, so the overlaps, and the Gram, stay those of ``sup``."""
    if sup.n == modes:
        return sup
    t = stellar.tensor(sup.triples, stellar.vacuum(modes - sup.n))
    return Superposition.from_stack(sup.coeffs, t, sup.gram_cell.carried_to(t))


def _op_gate(op: dict, modes: int, env: int, where: str) -> tuple:
    """The one gate of a typed gate or channel op on the register of the
    ``modes`` system modes and ``env`` environment modes after them, checked
    against the system modes, and the environment modes it leaves.  A
    symplectic op acts as S (+) 1 and d (+) 0 on the register, and a channel
    op's Stinespring dilation as X (+) 1, Y (+) 0, D (+) 0, so the earlier
    environment modes pass through them."""
    name = op["gate"]
    if name in ("symplectic", "channel"):  # arrays on the system modes; a vector left out is zero
        arrays, zeros = [], np.zeros(2 * env)
        for key in GATE_FIELDS[name]:
            shape = (2 * modes,) if key in ("shift", "D") else (2 * modes, 2 * modes)
            arrays.append(np.zeros(shape) if op[key] is None else op[key])
            if arrays[-1].shape != shape:
                raise ValidationFailure(f"{where}.{key}: expected shape {shape} on {modes} modes")
    if name == "symplectic":
        smat, shift = arrays
        if not is_symplectic(smat):
            raise ValidationFailure(f"{where}.matrix: not symplectic within tolerance")
        return Symplectic(block_diag(smat, np.eye(2 * env)), np.concatenate([shift, zeros])), env
    if name == "channel":
        x, y, d = arrays
        try:
            ch = GaussianChannel(block_diag(x, np.eye(2 * env)), block_diag(y, np.diag(zeros)), np.concatenate([d, zeros]))
        except ValueError as exc:  # with the shapes checked, Y is asymmetric or too small for X
            raise ValidationFailure(f"{where}.Y: {exc}") from None
        s = ch.dilation()
        return Symplectic(s, np.concatenate([ch.d, np.zeros(len(s) - len(ch.d))])), len(s) // 2 - modes
    if name == "displace":
        gate = Displace(op["mode"], op["alpha"])
    elif name == "squeeze":
        gate = Squeeze(op["mode"], op["r"], op["theta"])
    elif name == "phase":
        gate = PhaseShift(op["mode"], op["theta"])
    else:  # beamsplitter
        if len(op["modes"]) != 2:
            raise ValidationFailure(f"{where}.modes: beamsplitter needs two modes")
        gate = BeamSplitter(*op["modes"], op["theta"], op["phi"])
    try:
        check_gate_modes(gate, modes)
    except ValueError as exc:  # a mode index out of range
        raise ValidationFailure(f"{where}: {exc}") from None
    return gate, env


def lower_ops(ops, modes: int) -> tuple:
    """Type the whole op list, before any work on the state, and lower it to
    segments run in order, with the number of system modes they leave: a
    ``("gates", width, gates)`` for each maximal run of gate ops on one
    ``width``-mode register, one gate per op, run after vacuum padding, and a
    ``("condition", measured, outcome)`` for each condition op."""
    segments, env = [], 0
    for k, op in enumerate(ops):
        where = f"ops[{k}]"
        op = _fields(op, f"{where}.", OP_FIELDS, GATE_FIELDS, by=("gate", "gate"))
        if op["gate"] == "condition":
            try:
                modes = len(simulator.kept_modes(modes, op["modes"], len(op["outcome"])))
            except ValueError as exc:  # a mode out of range or repeated, the wrong outcome length, no mode left
                raise ValidationFailure(f"{where}: {exc}") from None
            segments.append(("condition", op["modes"], op["outcome"]))
        else:
            gate, env = _op_gate(op, modes, env, where)
            if not segments or segments[-1][0] != "gates" or segments[-1][1] != modes + env:
                segments.append(("gates", modes + env, []))
            segments[-1][2].append(gate)
    return segments, modes


def _run_segments(state: Superposition, segments: list) -> tuple:
    """Run lowered ops: the final state and the summed log scale of its
    conditions; the projected state is e^(log_scale / 2) times the final one.
    A run of gate ops costs one unitary, one `simulator.evolve` and so one
    stacked normalisation check; `stellar.apply_gate` still checks each squeeze."""
    log_scale = 0.0
    for kind, *segment in segments:
        if kind == "gates":
            width, gates = segment
            # the gates were mode-checked as they were lowered
            state = simulator.evolve(_with_vacuum(state, width), GaussianUnitary(tuple(gates), width))
        else:
            state, shift = simulator.condition(state, *segment)
            log_scale += shift
    return state, log_scale


def _named(where: str, run, *args):
    """``run(*args)``, with a plain ValueError it raises (a range error)
    named by ``where``; a `GsimError` keeps its message and exit code."""
    try:
        return run(*args)
    except (ValidationFailure, GsimError):
        raise
    except ValueError as exc:
        raise ValidationFailure(f"{where}: {exc}") from None


def _perform(state, modes: int, task: dict, seed: int, log_scale: float = 0.0) -> tuple:
    """(value, error band) of a typed task on the final state, its first ``modes``
    modes the system and ``log_scale`` that of `_run_segments`."""
    name = task["name"]
    if name in ("approx_born", "extent") and state.n > modes:  # no mixed-state definition yet
        raise ValidationFailure(f"task.name: {name} requires a pure-state pipeline; after a channel the system is mixed")
    if name == "exact_born":
        if state.n > modes:  # the heterodyne marginal of the system modes
            est = simulator.heterodyne_density(state, range(modes), task["outcome"])
        else:
            est = simulator.exact_born(state, task["outcome"])
        return est.value, list(est.error_band)
    if name == "approx_born":
        est = simulator.approx_born(state, task["outcome"], task["delta"], task["epsilon"], task["pfail"], seed=seed)
        return est.value, list(est.error_band)
    if name == "norm":  # of the projected state; a channel's dilation keeps the norm
        est, scale = simulator.fast_norm(state, task["epsilon"], task["pfail"], seed=seed), math.exp(log_scale)
        return est.eta * scale, [bound * scale for bound in est.band]
    if name == "extent":
        rep = states.measures(state)
        return {
            "extent_upper": rep.extent_upper,
            "rank": rep.rank,
            "l1_squared": rep.l1**2,
            "norm_squared": rep.norm_squared,
        }, list(rep.band)
    if name == "breed_bound":
        return states.breeding_lower_bound(task["xi"]), None
    if name == "bs_bound":
        def bounds(m):
            cost, classical = states.boson_sampling_bound(m)
            return {"extent_bound": cost, "nonclassicality_bound": classical}

        last = bounds(task["mbar"])  # checks the photon count, swept or not
        if task["sweep"]:
            if task["mbar"] < 1:
                raise ValidationFailure("task.mbar: a sweep needs an mbar of at least 1")
            return [{"mbar": m, **bounds(m)} for m in range(1, task["mbar"] + 1)], None
        return last, None
    if name == "optimize_fidelity":
        if task["mode"] == "two":
            make, objective = apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity
        else:
            make, objective = apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity
        cfg = make(restarts=task["restarts"], budget=task["budget"], seed=seed)
        res = apps.optimize_fidelity(cfg, objective=objective)
        return {
            "fidelity": res.best_fidelity,
            "params": list(res.best_params),
            "evaluations": res.evaluations,
        }, None
    # table1: a row's fields are its output keys
    return [dataclasses.asdict(r) for r in apps.report_table(task["deltas"])], None


def result_document(task: str, inputs: dict, value, error_band, seed: int) -> dict:
    return {
        "task": task,
        "inputs": inputs,
        "value": value,
        "error_band": error_band,
        "counters": counters.tally.snapshot(),
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
    }


def emit(doc: dict, fmt: str, out=None) -> str:
    """Print ``doc`` as JSON or CSV; its one strict JSON dump also checks, for
    either format, that the document is finite."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity: never printed
        raise FloatingPointError("the result is not finite") from exc
    if fmt == "csv":
        text = _to_csv(doc)
    print(text, file=out or sys.stdout)
    return text


def _to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    value = doc["value"]
    if isinstance(value, list) and value and isinstance(value[0], dict):
        writer.writerow(sorted(value[0].keys()))
        for row in value:
            writer.writerow([row[k] for k in sorted(row.keys())])
    elif isinstance(value, dict):
        writer.writerow(sorted(value.keys()))
        writer.writerow([value[k] for k in sorted(value.keys())])
    else:
        writer.writerow(["task", "value", "seed"])
        writer.writerow([doc["task"], value, doc["seed"]])
    return buf.getvalue().rstrip("\n")


def _finite_float(text: str) -> float:
    """argparse type of the float flags: NaN and infinities exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _outcome(text: str) -> list:
    """argparse type of ``--outcome re,im``: the one-mode outcome [[re, im]]."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im, got {text!r}")
    return [[_finite_float(part) for part in parts]]


# the argparse options of every flag; a subcommand declares the flags its task
# reads, and a flag of a task field with a default is absent unless given
FLAGS = {
    "program": {},
    "--state": dict(default="cat", choices=["vacuum", "coherent", "cat", "gkp", "grid", "fock1-ring"]),
    "--alpha": dict(type=_finite_float, default=1.0),
    "--parity": dict(default="+", choices=["+", "-"]),
    "--grid-delta": dict(type=_finite_float, default=0.3),
    "--ring-n": dict(type=int, default=16),
    "--outcome": dict(type=_outcome, default="0,0", help="re,im of the coherent outcome"),
    "--approx": dict(action="store_true"),
    "--xi": dict(type=_finite_float, required=True),
    "--mbar": dict(type=int, required=True),
    "--sweep": dict(action="store_true", default=argparse.SUPPRESS, help="emit all values 1..mbar"),
    **dict.fromkeys(("--restarts", "--budget"), dict(type=int, default=argparse.SUPPRESS)),
    "--mode": dict(choices=["two", "single"], default=argparse.SUPPRESS),
    "--deltas": dict(default=argparse.SUPPRESS),
    "--seed": dict(type=int, default=0),
    **{f"--{name}": dict(type=_finite_float, default=argparse.SUPPRESS) for name in ("delta", "epsilon", "pfail")},
    "--format": dict(choices=["json", "csv"], default="json"),
}


STATE_FLAGS = ("--state", "--alpha", "--parity", "--grid-delta", "--ring-n")

# the flags of each subcommand, besides --format
COMMANDS = {
    "run": ("program",),
    "extent": STATE_FLAGS,
    "norm": (*STATE_FLAGS, "--seed", "--epsilon", "--pfail"),
    "born": (*STATE_FLAGS, "--outcome", "--approx", "--seed", "--delta", "--epsilon", "--pfail"),
    "breed-bound": ("--xi",),
    "bs-bound": ("--mbar", "--sweep"),
    "optimize-fidelity": ("--restarts", "--budget", "--mode", "--seed"),
    "table1": ("--deltas",),
}


def lower(args) -> dict:
    """The circuit program a subcommand stands for: the ``initial`` fields that
    its state's kind reads, and every field of its task, from its flag or
    else from the task's default; all of the command's input apart from ``--format``."""
    program = {"schema_version": SCHEMA_VERSION, "modes": 1}
    if "seed" in args:
        program["seed"] = args.seed
    if "state" in args:
        kind = args.state.replace("-", "_")
        flags = dict(alpha=args.alpha, parity=args.parity, delta=args.grid_delta, kappa=args.grid_delta, N=args.ring_n)
        program.update(initial={"kind": kind, **{key: flags[key] for key in KIND_FIELDS[kind] if key in flags}}, ops=[])
    name = args.command.replace("-", "_")
    if name == "born":
        name = "approx_born" if args.approx else "exact_born"
        if given := [f"--{key}" for key in NAME_FIELDS["approx_born"] if key in args and key not in NAME_FIELDS[name]]:
            raise ValidationFailure(f"{', '.join(given)}: read only with --approx")
    if "deltas" in args:
        try:
            args.deltas = [float(v) for v in args.deltas.split(",")]
        except ValueError:
            raise ValidationFailure(f"--deltas: expected comma-separated numbers, got {args.deltas!r}") from None
    program["task"] = {"name": name, **{key: getattr(args, key, default) for key, default in NAME_FIELDS[name].items()}}
    return program


def execute(program: dict, source, fmt: str) -> int:
    """Type every field of a program before any numerical work, the top-level
    fields, ``initial``, the ops and ``task`` in turn; then run it and emit its
    result in the format ``fmt``."""
    top = _fields(program, "", PROGRAM_FIELDS, PROGRAM_DEFAULTS)
    modes = top["modes"]
    init = None if top["initial"] is None else read_initial(top["initial"])
    segments, system = lower_ops(top["ops"], modes)
    task = read_task(top["task"])
    if init is None and task["name"] not in STATE_FREE_TASKS:
        raise ValidationFailure(f"initial: task {task['name']!r} needs an initial state")
    if "outcome" in task and len(task["outcome"]) != system:
        raise ValidationFailure(f"task.outcome: expected one entry per system mode ({system}), got {len(task['outcome'])}")
    state, log_scale = (None, 0.0) if init is None else _run_segments(_named("initial", _initial_state, init, modes), segments)
    value, band = _named("task", _perform, state, system, task, top["seed"], log_scale)
    emit(result_document(task["name"], {"program": source, "modes": modes}, value, band, top["seed"]), fmt)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``gsim`` argument parser, built once per process: ``parse_args``
    returns a fresh namespace and leaves the parser as it was, and usage and
    help are formatted when they are printed, so every call can share it."""
    parser = argparse.ArgumentParser(prog="gsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in COMMANDS.items():
        p = sub.add_parser(command, **({"help": "execute a JSON circuit program"} if command == "run" else {}))
        for name in (*names, "--format"):
            p.add_argument(name, **FLAGS[name])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    counters.tally.reset()
    try:
        if args.command == "run":
            with open(args.program, "r", encoding="utf-8") as fh:
                program = json.load(fh)
            code = execute(program, args.program, args.format)
        else:
            program = lower(args)
            code = execute(program, program, args.format)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`gsim ... | head`): nothing is lost that it
        # wanted, so the rest of the output goes to devnull and the run succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except RecursionError:  # a program nested past the interpreter's recursion limit
        print("parse error: program is nested too deeply", file=sys.stderr)
        return 2
    except (ValidationFailure, DimensionMismatch, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (IllConditioned, ArithmeticError, GsimError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy refuses an array larger than the host can give
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
