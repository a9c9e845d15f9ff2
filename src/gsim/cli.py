"""Command-line surface: circuit programs, measure reports and bounds.

Programs are JSON documents (schema below); results are deterministic JSON
or CSV documents carrying the task value, error band, work counters and the
seed.  Exit codes: 0 success, 2 parse/validation error, 3 numerical failure.
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
from .gaussian import GaussianChannel, GaussianMixed, GaussianPure, apply_channel
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

PROGRAM_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "modes", "task"],
    "properties": {
        "schema_version": {"type": "integer"},
        "modes": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "initial": {
            "type": "object",
            "required": ["kind"],
            # every field `build_initial` reads
            "properties": {
                "kind": {"type": "string"},
                "alpha": {"type": ["number", "array"]},
                "parity": {"type": ["string", "integer"]},
                "seed_state": {"type": "string"},
                **{k: {"type": "number"} for k in ("r", "theta", "kappa", "delta", "tail_tol")},
                **{k: {"type": "integer"} for k in ("d", "mu", "s_max", "t_max", "N")},
            },
        },
        "ops": {"type": "array"},
        "task": {
            "type": "object",
            "required": ["name"],
            # every field `run_task` reads
            "properties": {
                "name": {"type": "string"},
                "outcome": {"type": "array"},
                "deltas": {"type": "array", "items": {"type": "number"}},
                "mode": {"type": "string"},
                "sweep": {"type": "boolean"},
                **{k: {"type": "number"} for k in ("delta", "epsilon", "pfail", "xi")},
                **{k: {"type": "integer"} for k in ("mbar", "restarts", "budget")},
            },
        },
    },
}


@functools.cache
def _validator(name: str):
    """Validator of the ``program`` or ``result`` schema, built once: the
    schema is checked against its metaschema here, not on every document."""
    from jsonschema.validators import validator_for

    schema = {"program": PROGRAM_SCHEMA, "result": RESULT_SCHEMA}[name]
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, name: str) -> None:
    """``jsonschema.validate`` against a cached validator: raises the same
    best-matching ``ValidationError``."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator(name).iter_errors(instance))
    if error is not None:
        raise error


class ValidationFailure(ValueError):
    pass


def _finite(value):
    """``value`` as a float if it is a finite JSON number (not a boolean), else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


def _number(op: dict, field: str, where: str, default=None) -> float:
    """Field ``field`` of an op, if it is a finite number."""
    number = _finite(op.get(field, default))
    if number is None:
        raise ValidationFailure(f"{where}.{field}: expected a finite number")
    return number


def _index(value, where: str) -> int:
    """``value`` if it is a JSON integer (not a boolean, a float or a string)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationFailure(f"{where}: expected an integer mode index")


def _complex_from(value, where: str) -> complex:
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0)
    re, im = _finite(re), _finite(im)
    if re is None or im is None:
        raise ValidationFailure(f"{where}: expected a finite number or [re, im] pair")
    return complex(re, im)


def _complex_vector(value, where: str):
    if not isinstance(value, list):
        raise ValidationFailure(f"{where}: expected a list")
    return [_complex_from(v, where) for v in value]


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


def build_initial(init: dict, modes: int) -> Superposition:
    kind = init.get("kind")
    if kind == "vacuum":
        sup = states.single_gaussian(GaussianPure.vacuum(1))
    elif kind == "coherent":
        sup = states.single_gaussian(
            GaussianPure.coherent([_complex_from(init.get("alpha", 0.0), "initial.alpha")])
        )
    elif kind == "squeezed":
        gates = [Squeeze(0, float(init.get("r", 0.0)), float(init.get("theta", 0.0)))]
        if "alpha" in init:
            gates.append(Displace(0, _complex_from(init["alpha"], "initial.alpha")))
        term = propagate(GaussianPure.vacuum(1), GaussianUnitary.from_gates(gates, 1))
        sup = states.single_gaussian(term)
    elif kind == "cat":
        parity = {"+": 1, "-": -1, 1: 1, -1: -1}.get(init.get("parity", "+"))
        if parity is None:
            raise ValidationFailure("initial.parity: expected '+' or '-'")
        sup = states.cat_state(_complex_from(init.get("alpha", 1.0), "initial.alpha"), parity)
    elif kind == "gkp":
        sup, _ = states.gkp_state(
            int(init.get("d", 2)),
            int(init.get("mu", 0)),
            float(init.get("kappa", 0.3)),
            float(init.get("delta", 0.3)),
            int(init.get("s_max", 5)),
        )
    elif kind == "grid":
        sup, _ = states.grid_sensor(
            float(init.get("delta", 0.3)), init.get("t_max"), float(init.get("tail_tol", 1e-8))
        )
    elif kind == "fock1_ring":
        seed_kind = init.get("seed_state", "optimal")
        seed = states.optimal_fock1_seed() if seed_kind == "optimal" else states.coherent_ring_seed()
        sup = states.fock1_ring(seed, int(init.get("N", 16)))
    else:
        raise ValidationFailure(f"initial.kind: unknown state constructor {kind!r}")
    if sup.n > modes:
        raise ValidationFailure("initial: state is wider than the declared mode count")
    if sup.n < modes:
        # tensor every term with vacuum modes: A (+) 0, (b, 0), same log c;
        # the overlaps, so the Gram, stay those of the unpadded terms
        t, pad = sup.triples, modes - sup.n
        vac = StellarParams(np.pad(t.a, ((0, 0), (0, pad), (0, pad))), np.pad(t.b, ((0, 0), (0, pad))), t.log_c)
        sup = Superposition.from_stack(sup.coeffs, vac, sup.gram_cell.carried_to(vac))
    return sup


def _op_gates(op: dict, modes: int, where: str):
    """The gates of a gate op, typed and mode-checked; None for another op."""
    name = op["gate"]
    if name in ("displace", "squeeze", "phase"):
        mode = _index(op.get("mode"), f"{where}.mode")
    if name == "displace":
        gates = (Displace(mode, _complex_from(op.get("alpha"), f"{where}.alpha")),)
    elif name == "squeeze":
        gates = (Squeeze(mode, _number(op, "r", where), _number(op, "theta", where, 0.0)),)
    elif name == "phase":
        gates = (PhaseShift(mode, _number(op, "theta", where)),)
    elif name == "beamsplitter":
        m = op.get("modes")
        if not isinstance(m, list) or len(m) != 2:
            raise ValidationFailure(f"{where}.modes: beamsplitter needs two modes")
        m1, m2 = (_index(v, f"{where}.modes") for v in m)
        gates = (BeamSplitter(m1, m2, _number(op, "theta", where), _number(op, "phi", where, 0.0)),)
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
        if not isinstance(op, dict) or "gate" not in op:
            raise ValidationFailure(f"{where}: expected an object with a 'gate' field")
        gates = _op_gates(op, modes, where)
        if gates is not None:
            if not segments or segments[-1][0] != "gates":
                segments.append(("gates", modes, []))
            segments[-1][2].append(gates)
            continue
        name = op["gate"]
        if name == "channel":
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
            measured = op.get("modes")
            if not isinstance(measured, list):
                raise ValidationFailure(f"{where}.modes: expected a list of mode indices")
            measured = [_index(m, f"{where}.modes") for m in measured]
            outcome = _complex_vector(op.get("outcome"), f"{where}.outcome")
            modes = len(simulator.kept_modes(modes, measured, len(outcome)))
            segments.append(("condition", measured, outcome))
        else:
            raise ValidationFailure(f"{where}: unknown gate {name!r}")
    return segments


def apply_ops(state: Superposition, ops, modes: int):
    """Run the op list; may switch from superposition to plain Gaussian.

    `lower_ops` first validates every op, so a malformed op exits 2 even
    behind a gate that would fail numerically.  On a superposition each run of
    gate ops then costs one unitary, one `simulator.evolve` and so one stacked
    normalisation check, while `stellar.apply_gate` still checks every squeeze
    on its own.  On a Gaussian state each op's (S, d) acts in turn and the run
    builds one `GaussianMixed`.
    """
    for kind, *segment in lower_ops(ops, modes):
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


def run_task(state, task: dict, seed: int, args) -> tuple:
    name = task.get("name")
    if name in ("approx_born", "norm", "extent") and not isinstance(state, Superposition):
        raise ValidationFailure(f"task.name: {name} requires a pure-state pipeline")
    if name == "exact_born":
        outcome = _complex_vector(task["outcome"], "task.outcome")
        if isinstance(state, Superposition):
            est = simulator.exact_born(state, outcome)
            return est.value, list(est.error_band)
        # mixed pipeline: Husimi density over d^2n(alpha)
        from .gaussian import fidelity_pure

        probe = GaussianPure.coherent(outcome)
        n = state.cov.shape[0] // 2
        return fidelity_pure(state, probe) / np.pi**n, None
    if name == "approx_born":
        outcome = _complex_vector(task["outcome"], "task.outcome")
        est = simulator.approx_born(
            state,
            outcome,
            float(task.get("delta", args.delta)),
            float(task.get("epsilon", args.epsilon)),
            float(task.get("pfail", args.pfail)),
            seed=seed,
        )
        return est.value, list(est.error_band)
    if name == "norm":
        est = simulator.fast_norm(
            state,
            float(task.get("epsilon", args.epsilon)),
            float(task.get("pfail", args.pfail)),
            seed=seed,
        )
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
        return states.breeding_lower_bound(float(task["xi"])), None
    if name == "bs_bound":
        def bounds(m):
            cost, classical = states.boson_sampling_bound(m)
            return {"extent_bound": cost, "nonclassicality_bound": classical}

        mbar = int(task["mbar"])
        if task.get("sweep", False):
            return [{"mbar": m, **bounds(m)} for m in range(1, mbar + 1)], None
        return bounds(mbar), None
    if name == "optimize_fidelity":
        mode = task.get("mode", "two")
        if mode == "two":
            make, objective = apps.OptimizerConfig.two_mode, apps.two_mode_fock11_fidelity
        elif mode == "single":
            make, objective = apps.OptimizerConfig.single_mode, apps.single_mode_fock1_fidelity
        else:
            raise ValidationFailure("task.mode: expected 'two' or 'single'")
        cfg = make(
            restarts=int(task.get("restarts", 32)),
            budget=int(task.get("budget", 20000)),
            seed=seed,
            threads=args.threads,
        )
        res = apps.optimize_fidelity(cfg, objective=objective)
        return {
            "fidelity": res.best_fidelity,
            "params": list(res.best_params),
            "evaluations": res.evaluations,
        }, None
    if name == "table1":
        deltas = [float(d) for d in task.get("deltas", apps.GRID_EXTENT_TABLE)]
        return [
            {
                "delta": r.delta,
                "naive_extent": r.naive_extent,
                "published_extent": r.published_extent,
                "one_sided_extent": r.one_sided_extent,
                "breeding_bound": r.breeding_bound,
            }
            for r in apps.report_table(deltas)
        ], None
    raise ValidationFailure(f"task.name: unknown task {name!r}")


def result_document(task: str, inputs: dict, value, error_band, seed: int) -> dict:
    doc = {
        "task": task,
        "inputs": inputs,
        "value": value,
        "error_band": error_band,
        "counters": counters.tally.snapshot(),
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
    }
    try:
        text = json.dumps(doc, default=_json_default, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity: never printed
        raise FloatingPointError(f"the {task} result is not finite") from exc
    _validate(json.loads(text), "result")
    return doc


def emit(doc: dict, fmt: str, out=None) -> str:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    else:
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


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delta", type=_finite_float, default=0.1)
    parser.add_argument("--epsilon", type=_finite_float, default=0.1)
    parser.add_argument("--pfail", type=_finite_float, default=0.05)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for optimizer restarts")


def _state_options(parser):
    parser.add_argument("--state", default="cat", choices=["vacuum", "coherent", "cat", "gkp", "grid", "fock1-ring"])
    parser.add_argument("--alpha", type=_finite_float, default=1.0)
    parser.add_argument("--parity", default="+", choices=["+", "-"])
    parser.add_argument("--grid-delta", type=_finite_float, default=0.3, dest="grid_delta")
    parser.add_argument("--ring-n", type=int, default=16, dest="ring_n")


def lower(args) -> dict:
    """The circuit program a subcommand stands for; common flags stay in ``args``."""
    program = {"schema_version": SCHEMA_VERSION, "modes": 1}
    if args.command in ("extent", "norm", "born"):
        init = {"kind": args.state.replace("-", "_")}
        if args.state == "coherent":
            init["alpha"] = args.alpha
        elif args.state == "cat":
            init.update(alpha=args.alpha, parity=args.parity)
        elif args.state == "gkp":
            init.update(delta=args.grid_delta, kappa=args.grid_delta)
        elif args.state == "grid":
            init["delta"] = args.grid_delta
        elif args.state == "fock1-ring":
            init["N"] = args.ring_n
        program.update(initial=init, ops=[])
    if args.command == "born":
        task = {"name": "approx_born" if args.approx else "exact_born", "outcome": [args.outcome]}
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


def execute(program: dict, source, args) -> int:
    """Validate, build, apply and run one program, then emit its result document."""
    from jsonschema import ValidationError

    try:
        _validate(program, "program")
    except ValidationError as exc:
        raise ValidationFailure(f"{'/'.join(str(p) for p in exc.path) or 'program'}: {exc.message}")
    seed = int(program.get("seed", args.seed))
    modes = int(program["modes"])
    state = None
    if "initial" in program:
        state = build_initial(program["initial"], modes)
        state = apply_ops(state, program.get("ops", []), modes)
    elif program["task"]["name"] not in STATE_FREE_TASKS:
        raise ValidationFailure(f"initial: task {program['task']['name']!r} needs an initial state")
    value, band = run_task(state, program["task"], seed, args)
    doc = result_document(program["task"]["name"], {"program": source, "modes": modes}, value, band, seed)
    emit(doc, args.format)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``gsim`` argument parser, built once per process: ``parse_args``
    returns a fresh namespace and leaves the parser as it was, and usage and
    help are formatted when they are printed, so every call can share it."""
    parser = argparse.ArgumentParser(prog="gsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON circuit program")
    p_run.add_argument("program")
    _add_common(p_run)

    for name in ("extent", "norm", "born"):
        p = sub.add_parser(name)
        _state_options(p)
        _add_common(p)
        if name == "born":
            p.add_argument("--outcome", type=_outcome_pair, default="0,0", help="re,im of the coherent outcome")
            p.add_argument("--approx", action="store_true")

    p_breed = sub.add_parser("breed-bound")
    p_breed.add_argument("--xi", type=_finite_float, required=True)
    _add_common(p_breed)

    p_bs = sub.add_parser("bs-bound")
    p_bs.add_argument("--mbar", type=int, required=True)
    p_bs.add_argument("--sweep", action="store_true", help="emit all values 1..mbar")
    _add_common(p_bs)

    p_opt = sub.add_parser("optimize-fidelity")
    p_opt.add_argument("--restarts", type=int, default=32)
    p_opt.add_argument("--budget", type=int, default=20000)
    p_opt.add_argument("--mode", choices=["two", "single"], default="two")
    _add_common(p_opt)

    p_tab = sub.add_parser("table1")
    p_tab.add_argument("--deltas", default=",".join(str(d) for d in apps.GRID_EXTENT_TABLE))
    _add_common(p_tab)

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
            return execute(program, args.program, args)
        program = lower(args)
        return execute(program, program, args)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (ValidationFailure, DimensionMismatch, FileNotFoundError, KeyError) as exc:
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
