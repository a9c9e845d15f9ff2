"""Span tracing of gsim's public functions, installed from outside the package.

``Tracer.install`` replaces each target function with a wrapper that records
a span ``[name, start_ns, end_ns, parent, units]`` in memory.  The wrapper is
patched into the defining module and into every gsim module that holds the
same function object under a ``from``-imported name (``simulator.propagate``,
``cli.propagate`` and so on), so calls through any alias are seen.

A span's self time is its duration minus the time covered by its direct
children.  The benchmark opens one ``bench.op`` span per operation, so the
self times of all spans of an operation add up to its traced duration.
"""

import functools
import gzip
import json
import sys
import time

from gsim import counters


def _rows(args, kw, result):
    return args[1].shape[0]


def _rank(args, kw, result):
    return args[0].rank


def _gate_count(args, kw, result):
    return len(args[1])


def _entries(args, kw, result):
    return len(result.entries)


def _samples(args, kw, result):
    return result.samples


def _one(args, kw, result):
    return 1


# (module, attribute path, span name, units per call or a tally field name).
# Besides the functions the metrics name, the list covers the other public
# functions on the measured paths, so that each module's self time is its own.
TARGETS = [
    ("stellar", "state_overlap", "stellar.state_overlap", None),
    ("stellar", "compose", "stellar.compose", None),
    ("stellar", "apply_to_state", "stellar.apply_to_state", None),
    ("stellar", "coherent_amplitude", "stellar.coherent_amplitude", _one),
    ("stellar", "coherent_amplitude_batch", "stellar.coherent_amplitude_batch", _rows),
    ("stellar", "program_params", "stellar.program_params", None),
    ("stellar", "gate_params", "stellar.gate_params", None),
    ("stellar", "pure_state_params", "stellar.pure_state_params", None),
    ("stellar", "state_norm_squared", "stellar.state_norm_squared", None),
    ("stellar", "fock11_amplitude", "stellar.fock11_amplitude", None),
    ("_linalg", "solve_complex", "_linalg.solve_complex", None),
    ("_linalg", "min_eig_hermitian", "_linalg.min_eig_hermitian", None),
    ("_linalg", "inv_psd", "_linalg.inv_psd", None),
    ("_linalg", "solve_psd", "_linalg.solve_psd", None),
    ("gates", "program_symplectic", "gates.program_symplectic", None),
    ("gaussian", "GaussianPure.__init__", "gaussian.GaussianPure", None),
    ("gaussian", "condition_on_generaldyne", "gaussian.condition_on_generaldyne", None),
    ("gaussian", "tensor", "gaussian.tensor", None),
    ("gaussian", "fidelity_pure", "gaussian.fidelity_pure", None),
    ("phase", "propagate", "phase.propagate", None),
    ("phase", "GaussianUnitary.from_gates", "phase.from_gates", _gate_count),
    ("states", "Superposition.gram", "states.gram", "overlap_evals"),
    ("states", "Superposition.norm_squared", "states.norm_squared", None),
    ("states", "Superposition.mean_photon_husimi", "states.mean_photon_husimi", None),
    ("states", "Superposition.coherent_amplitude", "states.coherent_amplitude", None),
    ("states", "Superposition.coherent_amplitude_batch", "states.amplitude_batch", "amplitude_evals"),
    ("states", "fock1_ring", "states.fock1_ring", None),
    ("states", "cat_state", "states.cat_state", None),
    ("states", "gkp_state", "states.gkp_state", None),
    ("simulator", "evolve", "simulator.evolve", _rank),
    ("simulator", "condition", "simulator.condition", _rank),
    ("simulator", "exact_born", "simulator.exact_born", None),
    ("simulator", "approx_born", "simulator.approx_born", None),
    ("simulator", "sparsify", "simulator.sparsify", _entries),
    ("simulator", "fast_norm", "simulator.fast_norm", _samples),
    ("rng", "stream", "rng.stream", None),
    ("apps", "optimize_fidelity", "apps.optimize_fidelity", None),
    ("apps", "two_mode_fock11_fidelity", "apps.objective", None),
    ("cli", "main", "cli.main", None),
]

MODULES = ("stellar", "_linalg", "gates", "gaussian", "phase", "states", "simulator", "rng", "apps", "cli")

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = None

    def _wrap(self, name, fn, units):
        spans, stack, clock, tally = self.spans, self._stack, time.perf_counter_ns, counters.tally
        field = units if isinstance(units, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            before = getattr(tally, field) if field else 0
            rec[1] = clock()
            try:
                result = fn(*args, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
            if field:
                rec[4] = getattr(tally, field) - before
            elif units is not None:
                rec[4] = units(args, kw, result)
            return result

        return wrapper

    def run_op(self, fn, *args):
        """Call ``fn`` inside a root ``bench.op`` span."""
        return self._wrap(ROOT, fn, None)(*args)

    def _plan(self):
        """(owner, attribute, original, wrapped) for every place to patch."""
        gsim_modules = [m for k, m in sys.modules.items() if k == "gsim" or k.startswith("gsim.")]
        plan = []
        for mod_name, path, span_name, units in TARGETS:
            module = sys.modules[f"gsim.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, functools.cached_property):
                    new = functools.cached_property(self._wrap(span_name, raw.func, units))
                    new.__set_name__(cls, attr)
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span_name, raw.__func__, units))
                else:
                    new = self._wrap(span_name, raw, units)
                plan.append((cls, attr, raw, new))
                continue
            orig = getattr(module, path)
            wrapped = self._wrap(span_name, orig, units)
            for mod in gsim_modules:
                for alias, value in vars(mod).items():
                    if value is orig:
                        plan.append((mod, alias, orig, wrapped))
        return plan

    def install(self):
        """Wrap every target in the defining module and in its aliases."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        """Put every patched attribute back."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per span name: calls, total and self nanoseconds, summed units."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {}
        for i, (name, start, end, _, units) in enumerate(spans):
            a = agg.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "units": 0})
            a["calls"] += 1
            a["ns"] += end - start
            a["self_ns"] += end - start - child_ns[i]
            a["units"] += units
        return agg

    def write(self, path):
        """One JSON list per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "units"]}\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(agg: dict, ops: int, tally_per_op: dict, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics, all per operation or per unit of work."""

    def get(name):
        return agg.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "units": 0})

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    ov, co, ap = get("stellar.state_overlap"), get("stellar.compose"), get("stellar.apply_to_state")
    put("stellar.state_overlap.calls", ratio(ov["calls"], ops), "count")
    put("stellar.state_overlap.us_per_call", ratio(ov["ns"], ov["calls"], 1e-3), "us")
    put("stellar.compose.calls", ratio(co["calls"], ops), "count")
    put("stellar.compose.us_per_call", ratio(co["ns"], co["calls"], 1e-3), "us")
    put("stellar.apply_to_state.us_per_call", ratio(ap["ns"], ap["calls"], 1e-3), "us")
    s_amp, b_amp = get("stellar.coherent_amplitude"), get("stellar.coherent_amplitude_batch")
    amps = s_amp["units"] + b_amp["units"]
    put("stellar.amplitude.count", ratio(amps, ops), "count")
    put("stellar.amplitude.ns_per_amp", ratio(s_amp["ns"] + b_amp["ns"], amps), "ns")
    sc, me = get("_linalg.solve_complex"), get("_linalg.min_eig_hermitian")
    put("linalg.solve_complex.us_per_call", ratio(sc["ns"], sc["calls"], 1e-3), "us")
    put("linalg.min_eig_hermitian.calls", ratio(me["calls"], ops), "count")
    gp, cg = get("gaussian.GaussianPure"), get("gaussian.condition_on_generaldyne")
    put("gaussian.GaussianPure.us_per_construct", ratio(gp["ns"], gp["calls"], 1e-3), "us")
    put("gaussian.condition_on_generaldyne.us_per_call", ratio(cg["ns"], cg["calls"], 1e-3), "us")
    pr, fg = get("phase.propagate"), get("phase.from_gates")
    put("phase.propagate.us_per_call", ratio(pr["ns"], pr["calls"], 1e-3), "us")
    put("phase.from_gates.us_per_gate", ratio(fg["ns"], fg["units"], 1e-3), "us")
    gr = get("states.gram")
    put("states.gram.pairs", ratio(gr["units"], ops), "count")
    put("states.gram.us_per_pair", ratio(gr["ns"], gr["units"], 1e-3), "us")
    put("states.gram.self_us_per_pair", ratio(gr["self_ns"], gr["units"], 1e-3), "us")
    mh, ab = get("states.mean_photon_husimi"), get("states.amplitude_batch")
    put("states.mean_photon_husimi.calls", ratio(mh["calls"], ops), "count")
    put("states.mean_photon_husimi.ms_per_call", ratio(mh["ns"], mh["calls"], 1e-6), "ms")
    put("states.amplitude_batch.ns_per_amp", ratio(ab["ns"], ab["units"]), "ns")
    ev, cd = get("simulator.evolve"), get("simulator.condition")
    sp, fn = get("simulator.sparsify"), get("simulator.fast_norm")
    put("simulator.evolve.us_per_term_op", ratio(ev["ns"], ev["units"], 1e-3), "us")
    put("simulator.condition.us_per_term", ratio(cd["ns"], cd["units"], 1e-3), "us")
    put("simulator.sparsify.us_per_draw", ratio(sp["ns"], sp["units"], 1e-3), "us")
    put("simulator.fast_norm.us_per_sample", ratio(fn["self_ns"], fn["units"], 1e-3), "us")
    st, ob, cl = get("rng.stream"), get("apps.objective"), get("cli.main")
    put("rng.stream.calls", ratio(st["calls"], ops), "count")
    put("rng.stream.us_per_call", ratio(st["ns"], st["calls"], 1e-3), "us")
    put("apps.objective.evals", ratio(ob["calls"], ops), "count")
    put("apps.objective.us_per_eval", ratio(ob["ns"], ob["calls"], 1e-3), "us")
    put("cli.main.self_ms_per_call", ratio(cl["self_ns"], cl["calls"], 1e-6), "ms")
    for key in ("amplitude_evals", "overlap_evals", "samples"):
        put(f"tally.{key}_per_op", tally_per_op[key], "count")
    put("untallied_overlaps_per_op", ratio(ov["calls"], ops) - tally_per_op["overlap_evals"], "count")

    op_ns = get(ROOT)["ns"]
    module_ns = {mod: 0 for mod in MODULES}
    for name, a in agg.items():
        mod = name.split(".")[0]
        if mod in module_ns:
            module_ns[mod] += a["self_ns"]
    for mod in MODULES:
        put(f"{mod.lstrip('_')}.self_ms_per_op", ratio(module_ns[mod], ops, 1e-6), "ms")
    put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
    put("trace.unattributed_frac", ratio(op_ns - sum(module_ns.values()), op_ns), "ratio")
    return m
