"""Spans around the calls into fadingdirt's public functions, recorded from
outside the program.

`Tracer.install()` rebinds each named function in every `fadingdirt` module
namespace that holds it (the CLI imports several of them by name), wraps the
`Discrete.values` and `Discrete.probs` properties, and wraps
`scipy.integrate.quad` to count calls and integrand evaluations.
`uninstall()` puts the originals back.  Spans (id, name, tag, start, end,
parent) are kept in memory per pass and written out when the run ends.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import Counter

# module -> public functions timed as spans
TARGETS = {
    "cli": ("main",),
    "harness": ("run_sweep", "verify_claims", "emit"),
    "fading": ("parse_distribution", "entropy_power_alpha", "entropy_bits_quadrature"),
    "bounds_norcsi": ("outer_no_rcsi", "inner_no_rcsi"),
    "bounds_rcsi": ("mass_half_params", "strong_params", "strong_condition_check",
                    "inner_mass_half", "inner_strong", "outer_strong",
                    "continuous_interval_params", "inner_continuous", "outer_continuous"),
    "gauss_mi": ("mi_monte_carlo", "costa_rate_exact"),
    "gp": ("optimize_alternating", "optimize_exhaustive", "evaluate_assignment"),
}
PROPERTIES = ("values", "probs")  # of fading.Discrete

# calls whose result depends only on the law, not on the (P, c^2) point
LAW_ONLY = ("fading.entropy_power_alpha", "bounds_rcsi.mass_half_params",
            "bounds_rcsi.strong_params", "bounds_rcsi.strong_condition_check",
            "bounds_rcsi.continuous_interval_params")


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def mi_case(dist, asg):
    if asg.rcsi:
        return "rcsi"
    return "norcsi_discrete" if dist.is_discrete else "norcsi_continuous"


def exhaustive_evals(inst, grid):
    """|X|^(|U||S|) * C(grid-1+|U|-1, |U|-1)^|S| scalar objective calls."""
    nu, ns, nx = inst.aux_size, len(inst.states), len(inst.inputs)
    return nx ** (nu * ns) * math.comb(grid - 1 + nu - 1, nu - 1) ** ns


class Tracer:
    def __init__(self):
        self.passes = []          # one {"spans": [...], "counts": Counter} per traced pass
        self.missing = {}         # target name -> reason it could not be wrapped
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._lock = threading.Lock()
        self._patches = []        # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to whatever the driving thread
        # has open (run_sweep hands its points to a thread pool)
        root = self._root_stack
        if root is not None and stack is not root and root:
            return root[-1]
        return None

    def count(self, key, n=1):
        with self._lock:
            self.passes[-1]["counts"][key] += n

    def begin_pass(self):
        self.passes.append({"spans": [], "counts": Counter()})
        self._root_stack = self._stack()

    def _wrap(self, name, fn, on_exit=None, tag_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = tag_of(args, kwargs) if tag_of else None
                tracer.passes[-1]["spans"].append((sid, name, tag, start, end, parent))
            if on_exit is not None:
                on_exit(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks that count work at the boundaries ------------------------------

    def _hooks(self, name):
        count = self.count
        if name == "harness.run_sweep":
            return (lambda res, a, k: count("harness.points", len(res))), None
        if name == "harness.emit":
            return ((lambda res, a, k: count("harness.emit.bytes", len(res))),
                    lambda a, k: _arg(a, k, 1, "fmt"))
        if name == "gauss_mi.mi_monte_carlo":
            def tag(a, k):
                return mi_case(_arg(a, k, 1, "dist"), _arg(a, k, 2, "asg"))

            def samples(res, a, k):
                count(f"gauss_mi.{tag(a, k)}.samples", int(_arg(a, k, 3, "n")))
            return samples, tag
        if name == "gp.optimize_alternating":
            return (lambda res, a, k: count("gp.restarts", int(_arg(a, k, 1, "restarts", 32)))), None
        if name == "gp.optimize_exhaustive":
            return (lambda res, a, k: count(
                "gp.exhaustive.objective_evals",
                exhaustive_evals(_arg(a, k, 0, "inst"), int(_arg(a, k, 1, "prob_grid", 11))))), None
        return None, None

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "fadingdirt" or n.startswith("fadingdirt.")}
        for mod_name, names in TARGETS.items():
            mod = mods.get(f"fadingdirt.{mod_name}")
            for fn_name in names:
                key = f"{mod_name}.{fn_name}"
                original = getattr(mod, fn_name, None) if mod is not None else None
                if original is None or not callable(original):
                    self.missing[key] = (f"fadingdirt.{mod_name} has no {fn_name}"
                                         if mod is not None else f"no module fadingdirt.{mod_name}")
                    continue
                on_exit, tag_of = self._hooks(key)
                wrapper = self._wrap(key, original, on_exit, tag_of)
                for mod_obj in mods.values():
                    for attr, val in list(vars(mod_obj).items()):
                        if val is original:
                            self._set(mod_obj, attr, wrapper)
        discrete = getattr(mods.get("fadingdirt.fading"), "Discrete", None)
        for prop in PROPERTIES:
            key = f"fading.Discrete.{prop}"
            original = vars(discrete).get(prop) if discrete is not None else None
            if not isinstance(original, property):
                self.missing[key] = f"fading.Discrete has no {prop} property"
                continue
            self._set(discrete, prop, property(self._wrap(key, original.fget)))
        self._install_quad()

    def _install_quad(self):
        try:
            from scipy import integrate
        except ImportError as exc:
            self.missing["quadrature"] = f"scipy.integrate unavailable: {exc}"
            return
        quad = integrate.quad
        tracer = self

        def counted_quad(func, *args, **kwargs):
            n = [0]

            def integrand(*a):
                n[0] += 1
                return func(*a)

            try:
                result = quad(integrand, *args, **kwargs)
            finally:
                tracer.count("quadrature.calls")
                tracer.count("quadrature.integrand_evals", n[0])
            err = float(result[1])
            with tracer._lock:
                counts = tracer.passes[-1]["counts"]
                counts["quadrature.max_abserr"] = max(counts.get("quadrature.max_abserr", 0.0), err)
            return result

        self._set(integrate, "quad", counted_quad)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# from spans to per-layer figures
# ---------------------------------------------------------------------------

def self_times(spans):
    """{span id: self seconds}: duration minus the union of its children's
    intervals (pool workers' children may overlap)."""
    children = {}
    for sid, _name, _tag, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, _tag, start, end, _parent in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def pass_figures(record):
    """Per-layer figures of one traced pass: calls, total and self seconds
    per span name (and per name[tag]), plus the boundary counts."""
    spans, counts = record["spans"], record["counts"]
    selfs = self_times(spans)
    calls, total, self_s = Counter(), Counter(), Counter()
    for sid, name, tag, start, end, _parent in spans:
        for key in (name, f"{name}[{tag}]") if tag else (name,):
            calls[key] += 1
            total[key] += end - start
            self_s[key] += selfs[sid]
    return {"calls": calls, "total_s": total, "self_s": self_s, "counts": counts}
