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
import sys

import numpy as np

from . import apps, counters, simulator, states
from .exceptions import DimensionMismatch, GsimError, IllConditioned
from .gates import BeamSplitter, Displace, PhaseShift, Squeeze, program_symplectic, symplectic_gates
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


def _complex_from(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ValidationFailure(f"{where}: expected number or [re, im] pair")


def _complex_vector(value, where: str):
    if not isinstance(value, list):
        raise ValidationFailure(f"{where}: expected a list")
    return [_complex_from(v, where) for v in value]


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


def _gate_from_op(op: dict):
    name = op.get("gate")
    if name == "displace":
        return Displace(int(op["mode"]), _complex_from(op["alpha"], "ops.alpha"))
    if name == "squeeze":
        return Squeeze(int(op["mode"]), float(op["r"]), float(op.get("theta", 0.0)))
    if name == "phase":
        return PhaseShift(int(op["mode"]), float(op["theta"]))
    if name == "beamsplitter":
        m = op.get("modes")
        if not isinstance(m, list) or len(m) != 2:
            raise ValidationFailure("ops.modes: beamsplitter needs two modes")
        return BeamSplitter(int(m[0]), int(m[1]), float(op["theta"]), float(op.get("phi", 0.0)))
    return None


def apply_ops(state, ops, modes: int):
    """Run the op list; may switch from superposition to plain Gaussian."""
    for k, op in enumerate(ops):
        where = f"ops[{k}]"
        if not isinstance(op, dict) or "gate" not in op:
            raise ValidationFailure(f"{where}: expected an object with a 'gate' field")
        name = op["gate"]
        gate = _gate_from_op(op)
        if gate is not None or name == "symplectic":
            if gate is None:
                smat = np.asarray(op["matrix"], dtype=float)
                shift = np.asarray(op.get("shift", np.zeros(2 * modes)), dtype=float)
                for field, value, shape in (("matrix", smat, (2 * modes, 2 * modes)), ("shift", shift, (2 * modes,))):
                    if value.shape != shape:
                        raise ValidationFailure(f"{where}.{field}: expected shape {shape} on {modes} modes")
            u = GaussianUnitary.from_gates([gate] if gate is not None else symplectic_gates(smat, shift), modes)
            if isinstance(state, Superposition):
                state = simulator.evolve(state, u)
            else:
                s, d = program_symplectic(u.gates, modes)
                state = GaussianMixed(s @ state.cov @ s.T, s @ state.mean + d)
        elif name == "channel":
            ch = GaussianChannel(
                np.asarray(op["X"], dtype=float),
                np.asarray(op["Y"], dtype=float),
                np.asarray(op.get("D", np.zeros(2 * modes)), dtype=float),
            )
            if isinstance(state, Superposition):
                if state.rank != 1:
                    raise ValidationFailure(
                        f"{where}: channels apply only to rank-1 states in this pipeline"
                    )
                state = state.entries[0].term.as_mixed()
            state = apply_channel(state, ch)
        elif name == "condition":
            if not isinstance(state, Superposition):
                raise ValidationFailure(f"{where}: conditioning needs a pure-state pipeline")
            meas_modes = [int(m) for m in op["modes"]]
            outcome = _complex_vector(op["outcome"], f"{where}.outcome")
            state, _ = simulator.condition(state, meas_modes, outcome)
            modes = state.n
        else:
            raise ValidationFailure(f"{where}: unknown gate {name!r}")
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
    _validate(json.loads(json.dumps(doc, default=_json_default)), "result")
    return doc


def emit(doc: dict, fmt: str, out=None) -> str:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default)
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


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--pfail", type=float, default=0.05)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for optimizer restarts")


def _state_options(parser):
    parser.add_argument("--state", default="cat", choices=["vacuum", "coherent", "cat", "gkp", "grid", "fock1-ring"])
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--parity", default="+", choices=["+", "-"])
    parser.add_argument("--grid-delta", type=float, default=0.3, dest="grid_delta")
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
        re, im = (float(v) for v in args.outcome.split(","))
        task = {"name": "approx_born" if args.approx else "exact_born", "outcome": [[re, im]]}
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
            p.add_argument("--outcome", default="0,0", help="re,im of the coherent outcome")
            p.add_argument("--approx", action="store_true")

    p_breed = sub.add_parser("breed-bound")
    p_breed.add_argument("--xi", type=float, required=True)
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
