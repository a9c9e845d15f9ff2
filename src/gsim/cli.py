"""Command-line surface: circuit programs, measure reports and bounds.

Programs are JSON documents typed field by field; results are deterministic
JSON or CSV documents carrying the task value, error band, work counters and
the seed.  Exit codes: 0 success, 2 parse/validation error, 3 numerical failure.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import apps, counters, simulator, states
from .exceptions import DimensionMismatch, GsimError, IllConditioned
from .gates import BeamSplitter, Displace, PhaseShift, Squeeze, check_gate_modes, program_symplectic, symplectic_gates
from .gaussian import GaussianChannel, GaussianMixed, GaussianPure, apply_channel, fidelity_pure
from .phase import GaussianUnitary, propagate
from .states import Superposition
from .stellar import StellarParams

SCHEMA_VERSION = 1

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
    """A finite number, or an [re, im] pair of them, as a complex."""
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0)
    expected = "a finite number or [re, im] pair"
    return complex(_real(re, where, expected), _real(im, where, expected))


def _complex_vector(value, where: str):
    return [_complex_from(v, where) for v in _list(value, where)]


def _reals(value, where: str) -> list:
    """A list of numbers as floats; whether they are in range is the task's check."""
    if type(value) is not list or not all(type(v) in (int, float) for v in value):
        raise ValidationFailure(f"{where}: expected a list of numbers")
    return [float(v) for v in value]


def _real_array(value, shape: tuple, where: str, modes: int) -> np.ndarray:
    """``value`` as a float array, if it nests finite numbers to ``shape``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValidationFailure(f"{where}: expected an array of finite numbers")
    if arr.shape != shape:
        raise ValidationFailure(f"{where}: expected shape {shape} on {modes} modes")
    return arr.astype(float)


def _non_finite_at(value):
    """Path (``.key`` and ``[k]`` steps) to the first NaN or infinity in a
    parsed JSON document, or None: Python's json reads ``NaN``, ``Infinity``
    and ``1e400`` (as inf).  The path is built only on a find."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, dict):
        items, step = value.items(), ".{}"
    elif isinstance(value, list):
        items, step = enumerate(value), "[{}]"
    else:
        return None
    for key, item in items:
        found = _non_finite_at(item)
        if found is not None:
            return step.format(key) + found
    return None


def _fields(fields, prefix: str, readers: dict, *required) -> dict:
    """The fields of the object ``fields`` that ``readers`` names, each typed by
    its reader in the readers' order and named ``prefix + key`` in an error; a
    missing ``required`` field reads as null, which its reader rejects."""
    if type(fields) is not dict:
        raise ValidationFailure(f"{prefix.rstrip('.') or 'program'}: expected an object")
    wanted = [key for key in readers if key in fields or key in required]
    return {key: readers[key](fields.get(key), prefix + key) for key in wanted}


PROGRAM_FIELDS = {
    "schema_version": _choice(SCHEMA_VERSION),
    "modes": _mode_count,
    "seed": _integer,
    "initial": _object,
    "ops": _list,
    "task": _object,
}

INITIAL_FIELDS = {
    "kind": _choice("vacuum", "coherent", "squeezed", "cat", "gkp", "grid", "fock1_ring"),
    "alpha": _complex_from,
    "parity": _choice("+", "-", 1, -1),
    "seed_state": _choice("optimal", "coherent"),
    **dict.fromkeys(("r", "theta", "kappa", "delta", "tail_tol"), _real),
    **dict.fromkeys(("d", "mu", "s_max", "t_max", "N"), _integer),
}

# the one field without a default that a task needs
TASK_NEEDS = {"exact_born": "outcome", "approx_born": "outcome", "breed_bound": "xi", "bs_bound": "mbar"}

TASK_FIELDS = {
    "name": _choice("exact_born", "approx_born", "norm", "extent", *STATE_FREE_TASKS),
    "outcome": _complex_vector,
    "deltas": _reals,
    "mode": _choice("two", "single"),
    "sweep": _boolean,
    **dict.fromkeys(("delta", "epsilon", "pfail", "xi"), _real),
    **dict.fromkeys(("mbar", "restarts", "budget"), _integer),
}

OP_FIELDS = {"gate": _choice("displace", "squeeze", "phase", "beamsplitter", "symplectic", "channel", "condition")}

TASK_DEFAULTS = dict(
    sweep=False, mode="two", restarts=32, budget=20000, deltas=tuple(apps.GRID_EXTENT_TABLE),
    delta=0.1, epsilon=0.1, pfail=0.05,  # the tolerances of approx_born and norm
)


def read_initial(init: dict) -> dict:
    """The typed fields of a program's ``initial`` object."""
    return _fields(init, "initial.", INITIAL_FIELDS, "kind")


def read_task(task: dict) -> dict:
    """The typed fields of a program's ``task`` object and the defaults of the rest."""
    fields = _fields(task, "task.", TASK_FIELDS, "name")
    name, need = fields["name"], TASK_NEEDS.get(fields["name"])
    if need is not None and need not in fields:
        raise ValidationFailure(f"task.{need}: required by task {name!r}")
    return {**TASK_DEFAULTS, **fields}


def _initial_state(init: dict, modes: int) -> Superposition:
    """The state that typed ``initial`` fields describe, padded to ``modes`` modes."""
    kind = init["kind"]
    if kind == "vacuum":
        sup = states.single_gaussian(GaussianPure.vacuum(1))
    elif kind == "coherent":
        sup = states.single_gaussian(GaussianPure.coherent([init.get("alpha", 0j)]))
    elif kind == "squeezed":
        gates = [Squeeze(0, init.get("r", 0.0), init.get("theta", 0.0))]
        if "alpha" in init:
            gates.append(Displace(0, init["alpha"]))
        term = propagate(GaussianPure.vacuum(1), GaussianUnitary.from_gates(gates, 1))
        sup = states.single_gaussian(term)
    elif kind == "cat":
        sup = states.cat_state(init.get("alpha", 1 + 0j), -1 if init.get("parity") in ("-", -1) else 1)
    elif kind == "gkp":
        sup, _ = states.gkp_state(
            init.get("d", 2), init.get("mu", 0), init.get("kappa", 0.3), init.get("delta", 0.3), init.get("s_max", 5)
        )
    elif kind == "grid":
        sup, _ = states.grid_sensor(init.get("delta", 0.3), init.get("t_max"), init.get("tail_tol", 1e-8))
    else:  # fock1_ring
        seeds = {"optimal": states.optimal_fock1_seed, "coherent": states.coherent_ring_seed}
        sup = states.fock1_ring(seeds[init.get("seed_state", "optimal")](), init.get("N", 16))
    if sup.n > modes:
        raise ValidationFailure("initial: state is wider than the declared mode count")
    if sup.n < modes:
        # tensor every term with vacuum modes: A (+) 0, (b, 0), same log c;
        # the overlaps, so the Gram, stay those of the unpadded terms
        t, pad = sup.triples, modes - sup.n
        vac = StellarParams(np.pad(t.a, ((0, 0), (0, pad), (0, pad))), np.pad(t.b, ((0, 0), (0, pad))), t.log_c)
        sup = Superposition.from_stack(sup.coeffs, vac, sup.gram_cell.carried_to(vac))
    return sup


def _op_gates(op: dict, name: str, modes: int, where: str):
    """The gates of a gate op, typed and mode-checked; None for another op."""
    if name in ("displace", "squeeze", "phase"):
        mode = _integer(op.get("mode"), f"{where}.mode")
    if name == "displace":
        gates = (Displace(mode, _complex_from(op.get("alpha"), f"{where}.alpha")),)
    elif name == "squeeze":
        gates = (Squeeze(mode, _real(op.get("r"), f"{where}.r"), _real(op.get("theta", 0.0), f"{where}.theta")),)
    elif name == "phase":
        gates = (PhaseShift(mode, _real(op.get("theta"), f"{where}.theta")),)
    elif name == "beamsplitter":
        m = op.get("modes")
        if not isinstance(m, list) or len(m) != 2:
            raise ValidationFailure(f"{where}.modes: beamsplitter needs two modes")
        m1, m2 = (_integer(v, f"{where}.modes") for v in m)
        theta, phi = _real(op.get("theta"), f"{where}.theta"), _real(op.get("phi", 0.0), f"{where}.phi")
        gates = (BeamSplitter(m1, m2, theta, phi),)
    elif name == "symplectic":
        smat = _real_array(op.get("matrix"), (2 * modes, 2 * modes), f"{where}.matrix", modes)
        shift = _real_array(op.get("shift", np.zeros(2 * modes)), (2 * modes,), f"{where}.shift", modes)
        gates = symplectic_gates(smat, shift)
    else:
        return None
    for gate in gates:
        check_gate_modes(gate, modes)
    return gates


def lower_ops(ops, modes: int) -> list:
    """Validate the whole op list, before any work on the state, and lower it
    to segments run in order:

    * ``("gates", modes, op_gates)`` for each maximal run of gate ops, with
      the gates of each op (a ``symplectic`` op's are its Euler gates);
    * ``("channel", channel, where)`` for a channel op;
    * ``("condition", modes, outcome)`` for a condition op.

    The pipeline starts on a superposition; after a channel it is Gaussian,
    so a later condition is rejected here.  The mode count follows
    conditioning.
    """
    segments, pure = [], True
    for k, op in enumerate(ops):
        where = f"ops[{k}]"
        name = _fields(op, f"{where}.", OP_FIELDS, "gate")["gate"]
        gates = _op_gates(op, name, modes, where)
        if gates is not None:
            if not segments or segments[-1][0] != "gates":
                segments.append(("gates", modes, []))
            segments[-1][2].append(gates)
        elif name == "channel":
            shape = (2 * modes, 2 * modes)
            ch = GaussianChannel(
                _real_array(op.get("X"), shape, f"{where}.X", modes),
                _real_array(op.get("Y"), shape, f"{where}.Y", modes),
                _real_array(op.get("D", np.zeros(2 * modes)), (2 * modes,), f"{where}.D", modes),
            )
            segments.append(("channel", ch, where))
            pure = False
        elif name == "condition":
            if not pure:
                raise ValidationFailure(f"{where}: conditioning needs a pure-state pipeline")
            measured = [_integer(m, f"{where}.modes") for m in _list(op.get("modes"), f"{where}.modes")]
            outcome = _complex_vector(op.get("outcome"), f"{where}.outcome")
            modes = len(simulator.kept_modes(modes, measured, len(outcome)))
            segments.append(("condition", measured, outcome))
    return segments


def _run_segments(state: Superposition, segments: list):
    """Run lowered ops.  On a superposition each run of gate ops costs one
    unitary, one `simulator.evolve` and so one stacked normalisation check,
    while `stellar.apply_gate` still checks every squeeze on its own.  On a
    Gaussian state each op's (S, d) acts in turn and the run builds one
    `GaussianMixed`."""
    for kind, *segment in segments:
        if kind == "gates":
            n, op_gates = segment
            if isinstance(state, Superposition):
                # the gates were mode-checked as they were lowered
                state = simulator.evolve(state, GaussianUnitary(tuple(g for gates in op_gates for g in gates), n))
            else:
                cov, mean = state.cov, state.mean
                for gates in op_gates:
                    # one (S, d) per op: a product over the run would round differently
                    s, d = program_symplectic(gates, n)
                    cov, mean = s @ cov @ s.T, s @ mean + d
                state = GaussianMixed(cov, mean)
        elif kind == "channel":
            ch, where = segment
            if isinstance(state, Superposition):
                if state.rank != 1:
                    raise ValidationFailure(f"{where}: channels apply only to rank-1 states in this pipeline")
                state = state.entries[0].term.as_mixed()
            state = apply_channel(state, ch)
        else:
            state, _ = simulator.condition(state, *segment)
    return state


def _perform(state, task: dict, seed: int) -> tuple:
    """(value, error band) of a typed task on the pipeline's final state."""
    name = task["name"]
    if name in ("approx_born", "norm", "extent") and not isinstance(state, Superposition):
        raise ValidationFailure(f"task.name: {name} requires a pure-state pipeline")
    if name == "exact_born":
        if isinstance(state, Superposition):
            est = simulator.exact_born(state, task["outcome"])
            return est.value, list(est.error_band)
        # mixed pipeline: Husimi density over d^2n(alpha)
        probe = GaussianPure.coherent(task["outcome"])
        n = state.cov.shape[0] // 2
        return fidelity_pure(state, probe) / np.pi**n, None
    if name == "approx_born":
        est = simulator.approx_born(state, task["outcome"], task["delta"], task["epsilon"], task["pfail"], seed=seed)
        return est.value, list(est.error_band)
    if name == "norm":
        est = simulator.fast_norm(state, task["epsilon"], task["pfail"], seed=seed)
        return est.eta, list(est.band)
    if name == "extent":
        rep = states.measures(state)
        return {
            "extent_upper": rep.extent_upper,
            "rank": rep.rank,
            "l1_squared": rep.l1**2,
            "norm_squared": rep.norm_squared,
        }, None
    if name == "breed_bound":
        return states.breeding_lower_bound(task["xi"]), None
    if name == "bs_bound":
        def bounds(m):
            cost, classical = states.boson_sampling_bound(m)
            return {"extent_bound": cost, "nonclassicality_bound": classical}

        last = bounds(task["mbar"])  # checks the photon count, swept or not
        if task["sweep"]:
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
    # table1
    return [
        {
            "delta": r.delta,
            "naive_extent": r.naive_extent,
            "published_extent": r.published_extent,
            "one_sided_extent": r.one_sided_extent,
            "breeding_bound": r.breeding_bound,
        }
        for r in apps.report_table(task["deltas"])
    ], None


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
        text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity: never printed
        raise FloatingPointError("the result is not finite") from exc
    if fmt == "csv":
        text = _to_csv(doc)
    print(text, file=out or sys.stdout)
    return text


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)}")


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


def _outcome_pair(text: str) -> list:
    """argparse type of ``--outcome re,im``: the pair [re, im]."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im, got {text!r}")
    return [_finite_float(part) for part in parts]


TOLERANCES = ("delta", "epsilon", "pfail")  # the tolerance flags of the approximate tasks

# the argparse options of every flag; a subcommand declares the flags its task reads
FLAGS = {
    "program": {},
    "--state": dict(default="cat", choices=["vacuum", "coherent", "cat", "gkp", "grid", "fock1-ring"]),
    "--alpha": dict(type=_finite_float, default=1.0),
    "--parity": dict(default="+", choices=["+", "-"]),
    "--grid-delta": dict(type=_finite_float, default=0.3),
    "--ring-n": dict(type=int, default=16),
    "--outcome": dict(type=_outcome_pair, default="0,0", help="re,im of the coherent outcome"),
    "--approx": dict(action="store_true"),
    "--xi": dict(type=_finite_float, required=True),
    "--mbar": dict(type=int, required=True),
    "--sweep": dict(action="store_true", help="emit all values 1..mbar"),
    "--restarts": dict(type=int, default=TASK_DEFAULTS["restarts"]),
    "--budget": dict(type=int, default=TASK_DEFAULTS["budget"]),
    "--mode": dict(choices=["two", "single"], default=TASK_DEFAULTS["mode"]),
    "--deltas": dict(default=",".join(map(str, TASK_DEFAULTS["deltas"]))),
    "--seed": dict(type=int, default=0),
    **{f"--{name}": dict(type=_finite_float, default=argparse.SUPPRESS) for name in TOLERANCES},  # absent unless given
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
    """The circuit program a subcommand stands for, with every flag its task
    reads: all of the command's input apart from ``--format``."""
    program = {"schema_version": SCHEMA_VERSION, "modes": 1}
    if "seed" in args:
        program["seed"] = args.seed
    if "state" in args:
        fields = {
            "coherent": {"alpha": args.alpha},
            "cat": {"alpha": args.alpha, "parity": args.parity},
            "gkp": {"delta": args.grid_delta, "kappa": args.grid_delta},
            "grid": {"delta": args.grid_delta},
            "fock1-ring": {"N": args.ring_n},
        }
        init = {"kind": args.state.replace("-", "_"), **fields.get(args.state, {})}
        program.update(initial=init, ops=[])
    tolerances = {name: getattr(args, name, TASK_DEFAULTS[name]) for name in TOLERANCES}
    if args.command == "born":
        task = {"name": "approx_born" if args.approx else "exact_born", "outcome": [args.outcome]}
        if args.approx:
            task.update(tolerances)
        elif given := [f"--{name}" for name in TOLERANCES if name in args]:
            raise ValidationFailure(f"{', '.join(given)}: read only with --approx")
    elif args.command == "norm":
        task = {"name": "norm", "epsilon": tolerances["epsilon"], "pfail": tolerances["pfail"]}
    elif args.command == "breed-bound":
        task = {"name": "breed_bound", "xi": args.xi}
    elif args.command == "bs-bound":
        task = {"name": "bs_bound", "mbar": args.mbar, "sweep": args.sweep}
    elif args.command == "optimize-fidelity":
        task = {"name": "optimize_fidelity", "mode": args.mode, "restarts": args.restarts, "budget": args.budget}
    elif args.command == "table1":
        task = {"name": "table1", "deltas": [float(v) for v in args.deltas.split(",")]}
    else:
        task = {"name": args.command}
    program["task"] = task
    return program


def execute(program: dict, source, fmt: str) -> int:
    """Type every field of a program before any numerical work, the top-level
    fields, ``initial``, the ops and ``task`` in turn; then run it and emit its
    result in the format ``fmt``."""
    top = _fields(program, "", PROGRAM_FIELDS, "schema_version", "modes", "task")
    modes = top["modes"]
    init = read_initial(top["initial"]) if "initial" in top else None
    segments = lower_ops(top.get("ops", []), modes)
    task = read_task(top["task"])
    if init is None and task["name"] not in STATE_FREE_TASKS:
        raise ValidationFailure(f"initial: task {task['name']!r} needs an initial state")
    state = None if init is None else _run_segments(_initial_state(init, modes), segments)
    seed = top.get("seed", 0)
    value, band = _perform(state, task, seed)
    emit(result_document(task["name"], {"program": source, "modes": modes}, value, band, seed), fmt)
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
            where = _non_finite_at(program)
            if where is not None:
                raise ValidationFailure(f"{where.lstrip('.') or 'program'}: expected a finite number")
            return execute(program, args.program, args.format)
        program = lower(args)
        return execute(program, program, args.format)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (ValidationFailure, DimensionMismatch, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (IllConditioned, ArithmeticError, GsimError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
