"""Spans and counters for the traced run, from wrappers around the program.

``install()`` replaces every public function of the eight layer modules of
``selfsim`` (and the few scipy names and methods listed there) with a wrapper that records
a span (name, start, end, parent) and, for some names, adds to counters
derived from arguments and results.  The wrappers are rebound wherever a
module imported the original, so calls between modules are seen too.  The
program's files are not changed; the untraced runs never call ``install``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("shooting", "core", "quadrature", "functionals", "variations",
          "spectrum", "numerics", "flow")

# (name, unit, better); order is the order of the printed table
METRICS = [
    ("shooting.shots", "count", "lower"),
    ("shooting.distinct_heights", "count", "lower"),
    ("shooting.distinct_per_shot", "ratio", "higher"),
    ("shooting.solve_ivp_calls", "count", "lower"),
    ("shooting.rhs_evals", "count", "lower"),
    ("shooting.ode_steps", "count", "lower"),
    ("shooting.bisection_rounds", "count", "lower"),
    ("shooting.shot_s", "s", "lower"),
    ("shooting.shoot_s", "s", "lower"),
    ("shooting.scan_s", "s", "lower"),
    ("shooting.ode_residual_s", "s", "lower"),
    ("shooting.self_s", "s", "lower"),
    ("core.interpolant_builds", "count", "lower"),
    ("core.interpolant_knots", "count", "lower"),
    ("core.interpolant_build_s", "s", "lower"),
    ("core.eval_calls", "count", "lower"),
    ("core.eval_points", "count", "lower"),
    ("core.eval_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("quadrature.composite_rule_builds", "count", "lower"),
    ("quadrature.weighted_integral_calls", "count", "lower"),
    ("quadrature.weighted_integral_s", "s", "lower"),
    ("quadrature.offset_calls", "count", "lower"),
    ("quadrature.offset_nodes", "count", "lower"),
    ("quadrature.offset_s", "s", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("functionals.energy_calls", "count", "lower"),
    ("functionals.energy_s", "s", "lower"),
    ("functionals.f_evals", "count", "lower"),
    ("functionals.f_s", "s", "lower"),
    ("functionals.entropy_calls", "count", "lower"),
    ("functionals.entropy_s", "s", "lower"),
    ("functionals.f_evals_per_entropy", "ratio", "lower"),
    ("functionals.identities_s", "s", "lower"),
    ("functionals.density_s", "s", "lower"),
    ("functionals.self_s", "s", "lower"),
    ("variations.fd_oracle_calls", "count", "lower"),
    ("variations.fd_oracle_s", "s", "lower"),
    ("variations.first_variation_s", "s", "lower"),
    ("variations.second_variation_s", "s", "lower"),
    ("variations.self_s", "s", "lower"),
    ("spectrum.sectors_built", "count", "lower"),
    ("spectrum.matrix_rows", "count", "lower"),
    ("spectrum.eigenpairs", "count", "lower"),
    ("spectrum.build_sector_s", "s", "lower"),
    ("spectrum.eigensolve_s", "s", "lower"),
    ("spectrum.apply_L_s", "s", "lower"),
    ("spectrum.self_s", "s", "lower"),
    ("numerics.derivative_points", "count", "lower"),
    ("numerics.derivative_s", "s", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("flow.runs", "count", "lower"),
    ("flow.run_s", "s", "lower"),
    ("flow.init_s", "s", "lower"),
    ("flow.steps_accepted", "count", "lower"),
    ("flow.step_attempts", "count", "lower"),
    ("flow.dt_halvings", "count", "lower"),
    ("flow.step_s", "s", "lower"),
    ("flow.s_per_step", "s", "lower"),
    ("flow.energy_evals", "count", "lower"),
    ("flow.energy_evals_per_step", "ratio", "lower"),
    ("flow.energy_s", "s", "lower"),
    ("flow.cn_solves", "count", "lower"),
    ("flow.cn_solve_s", "s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class _BPolyProxy:
    """Stands in for ``core.BPoly``; only ``from_derivatives`` is used there."""

    def __init__(self, from_derivatives):
        self.from_derivatives = from_derivatives


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.heights: set = set()

    def wrap(self, name, fn, note=None, before=None):
        """Span around fn; note(tracer, args, kwargs, result, ctx) counts,
        with ctx = before(args, kwargs) taken at entry."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                note(self, args, kwargs, result, ctx)
            return result
        return traced


# ----------------------------------------------------------------- counters
def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _note_solve_ivp(tr, args, kwargs, res, ctx):
    tr.counts["shooting.rhs_evals"] += int(res.nfev)
    tr.counts["shooting.ode_steps"] += max(len(res.t) - 1, 0)


def _note_shot(tr, args, kwargs, res, ctx):
    params, a = args[0], args[1] if len(args) > 1 else kwargs["a"]
    tr.heights.add((params.n, params.p, float(a)))


def _note_shoot(tr, args, kwargs, prof, ctx):
    # bracket halvings from the given bracket to the final one; equals the
    # number of bisection rounds for one-bit bisection
    a_lo, a_hi = args[1], args[2]
    lo, hi = prof.meta["bracket"]
    tr.counts["shooting.bisection_rounds"] += round(math.log2((a_hi - a_lo) / (hi - lo)))


def _note_knots(tr, args, kwargs, res, ctx):
    tr.counts["core.interpolant_knots"] += len(args[0])


def _note_eval(tr, args, kwargs, res, ctx):
    tr.counts["core.eval_points"] += int(getattr(res, "size", 1))


def _note_offset(original):
    def note(tr, args, kwargs, res, ctx):
        a = _bound(original, args, kwargs)
        if a["x0_norm"] == 0.0:
            rule = a["rule_r"]
            if rule is None:    # the default composite rule is built inside
                default = sys.modules["selfsim.quadrature"].composite_rule
                nodes = inspect.signature(default).parameters["N"].default
            else:
                nodes = len(rule.nodes)
        else:
            nodes = a["n_panel"] * a["n_gl"]
        tr.counts["quadrature.offset_nodes"] += nodes
    return note


def _note_sector(tr, args, kwargs, op, ctx):
    tr.counts["spectrum.matrix_rows"] += len(op.r)


def _note_eigh(tr, args, kwargs, res, ctx):
    tr.counts["spectrum.eigenpairs"] += len(res[0])


def _note_derivative(tr, args, kwargs, res, ctx):
    tr.counts["numerics.derivative_points"] += len(args[0])


def _tau_before(args, kwargs):
    return args[0].tau


def _note_step(tr, args, kwargs, state, tau_before):
    if state.tau > tau_before:
        tr.counts["flow.steps_accepted"] += 1


def install() -> Tracer:
    """Wrap the layers' functions in this process; returns the tracer."""
    tr = Tracer()
    mods = {layer: importlib.import_module(f"selfsim.{layer}") for layer in LAYERS}
    core, flow, shooting, spectrum = (mods[k] for k in ("core", "flow", "shooting",
                                                        "spectrum"))
    notes = {
        "shooting.integrate_radial": (_note_shot, None),
        "shooting.shoot": (_note_shoot, None),
        "spectrum.build_sector": (_note_sector, None),
        "numerics.derivative_on_grid": (_note_derivative, None),
        "flow.step": (_note_step, _tau_before),
    }
    replaced = {}   # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            note, before = notes.get(name, (None, None))
            if name == "quadrature.offset_integral_many":
                note = _note_offset(fn)
            replaced[id(fn)] = tr.wrap(name, fn, note, before)
    # names the layers import from scipy, and the methods that evaluate and
    # build profile interpolants
    extra = [
        (shooting, "solve_ivp", _note_solve_ivp),
        (flow, "solve_banded", None),
        (flow, "_try_step", None),
        (spectrum, "eigh_tridiagonal", _note_eigh),
        (core, "CubicHermiteSpline", _note_knots),
    ]
    for mod, attr, note in extra:
        fn = getattr(mod, attr)
        replaced[id(fn)] = tr.wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn, note)
    core.BPoly = _BPolyProxy(tr.wrap("core.BPoly.from_derivatives",
                                     core.BPoly.from_derivatives, _note_knots))
    for meth in ("value", "deriv"):
        setattr(core.RadialProfile, meth,
                tr.wrap(f"core.RadialProfile.{meth}",
                        getattr(core.RadialProfile, meth), _note_eval))
    # rebind every module-level reference to a wrapped original
    for modname, mod in list(sys.modules.items()):
        if modname == "selfsim" or modname.startswith("selfsim."):
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
    return tr


# ------------------------------------------------------------------ report
def layer_metrics(tr: Tracer) -> dict:
    """Every METRICS entry but trace.overhead_s, from spans and counters."""
    spans = tr.spans
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    calls = Counter(names)
    child_time = [0.0] * len(spans)
    for i, par in enumerate(parent):
        if par >= 0:
            child_time[par] += dur[i]
    self_by_layer = defaultdict(float)
    for i, name in enumerate(names):
        self_by_layer[name.split(".", 1)[0]] += dur[i] - child_time[i]

    def incl(*fns: str) -> float:
        """Time in the outermost calls of the named functions."""
        want = set(fns)
        inside = [False] * len(spans)
        total = 0.0
        for i, name in enumerate(names):
            par = parent[i]
            above = par >= 0 and (inside[par] or names[par] in want)
            inside[i] = above
            if name in want and not above:
                total += dur[i]
        return total

    def within(fn: str, outer: str) -> int:
        inside = [False] * len(spans)
        count = 0
        for i, name in enumerate(names):
            par = parent[i]
            inside[i] = par >= 0 and (inside[par] or names[par] == outer)
            count += name == fn and inside[i]
        return count

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counts
    shots = calls["shooting.integrate_radial"]
    accepted = c["flow.steps_accepted"]
    attempts = calls["flow._try_step"]
    step_s = incl("flow.step")
    m = {
        "shooting.shots": shots,
        "shooting.distinct_heights": len(tr.heights),
        "shooting.distinct_per_shot": ratio(len(tr.heights), shots),
        "shooting.solve_ivp_calls": calls["shooting.solve_ivp"],
        "shooting.rhs_evals": c["shooting.rhs_evals"],
        "shooting.ode_steps": c["shooting.ode_steps"],
        "shooting.bisection_rounds": c["shooting.bisection_rounds"],
        "shooting.shot_s": incl("shooting.integrate_radial"),
        "shooting.shoot_s": incl("shooting.shoot"),
        "shooting.scan_s": incl("shooting.scan_initial_values", "shooting.find_brackets"),
        "shooting.ode_residual_s": incl("shooting.ode_residual"),
        "core.interpolant_builds": calls["core.BPoly.from_derivatives"]
        + calls["core.CubicHermiteSpline"],
        "core.interpolant_knots": c["core.interpolant_knots"],
        "core.interpolant_build_s": incl("core.BPoly.from_derivatives",
                                         "core.CubicHermiteSpline"),
        "core.eval_calls": calls["core.RadialProfile.value"]
        + calls["core.RadialProfile.deriv"],
        "core.eval_points": c["core.eval_points"],
        "core.eval_s": incl("core.RadialProfile.value", "core.RadialProfile.deriv"),
        "quadrature.composite_rule_builds": calls["quadrature.composite_rule"],
        "quadrature.weighted_integral_calls": calls["quadrature.weighted_integral"],
        "quadrature.weighted_integral_s": incl("quadrature.weighted_integral"),
        "quadrature.offset_calls": calls["quadrature.offset_integral_many"],
        "quadrature.offset_nodes": c["quadrature.offset_nodes"],
        "quadrature.offset_s": incl("quadrature.offset_integral_many"),
        "functionals.energy_calls": calls["functionals.energy"],
        "functionals.energy_s": incl("functionals.energy"),
        "functionals.f_evals": calls["functionals.f_functional"],
        "functionals.f_s": incl("functionals.f_functional"),
        "functionals.entropy_calls": calls["functionals.entropy"],
        "functionals.entropy_s": incl("functionals.entropy"),
        "functionals.f_evals_per_entropy": ratio(
            within("functionals.f_functional", "functionals.entropy"),
            calls["functionals.entropy"]),
        "functionals.identities_s": incl("functionals.identities"),
        "functionals.density_s": incl("functionals.density"),
        "variations.fd_oracle_calls": calls["variations.general_second_variation_fd"],
        "variations.fd_oracle_s": incl("variations.general_second_variation_fd"),
        "variations.first_variation_s": incl("variations.first_variation"),
        "variations.second_variation_s": incl("variations.second_variation"),
        "spectrum.sectors_built": calls["spectrum.build_sector"],
        "spectrum.matrix_rows": c["spectrum.matrix_rows"],
        "spectrum.eigenpairs": c["spectrum.eigenpairs"],
        "spectrum.build_sector_s": incl("spectrum.build_sector"),
        "spectrum.eigensolve_s": incl("spectrum.eigh_tridiagonal"),
        "spectrum.apply_L_s": incl("spectrum.apply_L"),
        "numerics.derivative_points": c["numerics.derivative_points"],
        "numerics.derivative_s": incl("numerics.derivative_on_grid"),
        "flow.runs": calls["flow.run"],
        "flow.run_s": incl("flow.run"),
        "flow.init_s": incl("flow.init_flow"),
        "flow.steps_accepted": accepted,
        "flow.step_attempts": attempts,
        "flow.dt_halvings": attempts - accepted,
        "flow.step_s": step_s,
        "flow.s_per_step": ratio(step_s, accepted),
        "flow.energy_evals": calls["flow.energy_of_state"],
        "flow.energy_evals_per_step": ratio(calls["flow.energy_of_state"], accepted),
        "flow.energy_s": incl("flow.energy_of_state"),
        "flow.cn_solves": calls["flow.solve_banded"],
        "flow.cn_solve_s": incl("flow.solve_banded"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def write_spans(tr: Tracer, path) -> None:
    """One line per span: name, start and end (s, from the first span), parent."""
    t0 = tr.spans[0][1] if tr.spans else 0.0
    with open(path, "w") as fh:
        fh.write("name,start_s,end_s,parent\n")
        for name, start, end, par in tr.spans:
            fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{par}\n")
