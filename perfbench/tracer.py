"""Outside-in tracer for the hammerline layers.

The tracer wraps public functions of the library from outside: each wrapped
function is rebound in every ``hammerline`` module that holds a binding to
it (``cli``, ``cone``, ``hammerstein`` and ``solver`` import functions by
name, so rebinding only the defining module would miss their calls).  No
file of the library is changed.

Every call of a wrapped function is a span.  A span's self time is its
duration minus the time covered by its child spans.  Spans of a group
(for instance ``check_index_one`` inside ``locate_index_one_flip``) count
once towards the group's busy time: only the outermost span of the group
adds its duration.  Spans are kept in memory and written out by
:meth:`Tracer.dump` when the run ends.  Calls of the innermost layer
(barycentric interpolation, hundreds of thousands of calls) are counted and
timed but keep no span record.

The callables handed to ``integrate_interval`` and ``sup_on_grid`` are
wrapped as well, which counts integrand and sup-search evaluations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class _Group:
    depth: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.groups: dict[str, _Group] = {}
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.values: dict = {}
        self.spans: list = []      # (id, parent id, name, start, end)
        self._stack: list = []     # open frames: [child seconds, span id]

    def wrap(self, name: str, group: str, fn, *, leaf: bool = False,
             on_call=None, on_return=None):
        """Traced version of fn.  A leaf has no traced callees and keeps
        no span record; it assumes its group holds no other function."""
        grp = self.groups.setdefault(group, _Group())
        stack, spans, calls, errors = (self._stack, self.spans, self.calls,
                                       self.errors)

        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                calls[name] += 1
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _clock() - start
                    grp.self_s += duration
                    grp.busy_s += duration
                    if stack:
                        stack[-1][0] += duration

            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            calls[name] += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans)]
            spans.append(None)   # reserve the id; filled in on exit
            grp.depth += 1
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                grp.depth -= 1
                duration = end - start
                grp.self_s += duration - frame[0]
                if grp.depth == 0:
                    grp.busy_s += duration
                if stack:
                    stack[-1][0] += duration
                spans[frame[1]] = (frame[1], parent, name, start, end)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count_callable(self, counter: str, keyword: str):
        """on_call hook: wrap the callable passed first (or as `keyword`)
        so that its calls count."""
        counters = self.counters

        def hook(args, kwargs):
            def counted(*a):
                counters[counter] += 1
                return fn(*a)

            if args:
                fn = args[0]
                args = (counted,) + args[1:]
            else:
                fn = kwargs[keyword]
                kwargs = dict(kwargs, **{keyword: counted})
            return args, kwargs

        return hook

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    # -- derived per-layer metrics ------------------------------------------

    def busy(self, group: str) -> float:
        return self.groups[group].busy_s

    def self_time(self, group: str) -> float:
        return self.groups[group].self_s

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, n, busy, own = self.counters, self.calls, self.busy, self.self_time
        sup_calls = n["quadrature.sup_on_grid"]
        apply_nodes = c["hammerstein.apply_T_nodes"]
        iterations = c["solver.picard_iterations"]
        return {
            "scenario.load_s": (busy("scenario.load"), "s"),
            "compactline.interp_calls":
                (n["compactline.barycentric_interpolate"], "count"),
            "compactline.interp_self_s": (own("compactline.interp"), "s"),
            "quadrature.integrate_calls":
                (n["quadrature.integrate_interval"], "count"),
            "quadrature.integrand_evals":
                (c["quadrature.integrand_evals"], "count"),
            "quadrature.integrate_self_s": (own("quadrature.integrate"), "s"),
            "quadrature.integrate_errors":
                (self.errors["quadrature.integrate_interval"], "count"),
            "quadrature.sup_calls": (sup_calls, "count"),
            "quadrature.sup_evals": (c["quadrature.sup_evals"], "count"),
            "quadrature.evals_per_sup":
                (c["quadrature.sup_evals"] / sup_calls if sup_calls else 0.0,
                 "count"),
            "quadrature.sup_self_s": (own("quadrature.sup"), "s"),
            "hammerstein.apply_T_calls": (n["hammerstein.apply_T"], "count"),
            "hammerstein.apply_T_s": (busy("hammerstein.apply_T"), "s"),
            "hammerstein.apply_T_ms_per_node":
                (1e3 * busy("hammerstein.apply_T") / apply_nodes
                 if apply_nodes else 0.0, "ms"),
            "hammerstein.c3_bound_profile_s":
                (busy("hammerstein.c3_bound_profile"), "s"),
            "hammerstein.kernel_limits_s":
                (busy("hammerstein.kernel_limits"), "s"),
            "hammerstein.modulus_check_s":
                (busy("hammerstein.modulus_check"), "s"),
            "hammerstein.dominator_check_s":
                (busy("hammerstein.dominator_check"), "s"),
            "cone.verify_s": (busy("cone.verify"), "s"),
            "cone.verify_self_s": (own("cone.verify"), "s"),
            "cone.kernel_profile_calls":
                (n["cone.kernel_functional_integral"], "count"),
            "cone.kernel_profile_s": (busy("cone.kernel_profile"), "s"),
            "cone.eval_functional_calls":
                (n["cone.eval_functional"] + n["cone.eval_functional_raw"],
                 "count"),
            "cone.eval_functional_s": (busy("cone.eval_functional"), "s"),
            "cone.properties_s": (busy("cone.properties"), "s"),
            "cone.index_checks":
                (n["cone.check_index_one"] + n["cone.check_index_zero"],
                 "count"),
            "cone.windows_s": (busy("cone.windows"), "s"),
            "solver.picard_s": (busy("solver.picard"), "s"),
            "solver.picard_iterations": (iterations, "count"),
            "solver.picard_s_per_iter":
                (busy("solver.picard") / iterations if iterations else 0.0,
                 "s"),
            "solver.picard_residual":
                (self.values.get("solver.picard_residual", 0.0), "norm"),
            "solver.oracle_s": (busy("solver.oracle"), "s"),
            "solver.oracle_steps": (c["solver.oracle_steps"], "count"),
            "solver.oracle_rejected": (c["solver.oracle_rejected"], "count"),
            "cli.self_s": (own("cli"), "s"),
        }


_SCENARIO_BUILDERS = ("load_scenario", "build_weight", "build_map",
                      "build_space", "build_problem", "build_system",
                      "build_envelope", "build_quad", "rho_grid")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind them wherever they are bound.

    Call after ``import hammerline``; raises AttributeError when a traced
    function no longer exists, so an API change breaks the traced run
    loudly rather than leaving a layer silently unmeasured.
    """

    def on_apply_T(args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        tracer.counters["hammerstein.apply_T_nodes"] += problem.space.m
        return args, kwargs

    def on_picard(sol):
        tracer.counters["solver.picard_iterations"] += sol.iterations
        tracer.values["solver.picard_residual"] = sol.residual

    def on_oracle(traj):
        tracer.counters["solver.oracle_steps"] += traj.steps
        tracer.counters["solver.oracle_rejected"] += traj.rejected

    table = [("scenario", f, "scenario.load", {}) for f in _SCENARIO_BUILDERS]
    table += [
        ("compactline", "barycentric_interpolate", "compactline.interp",
         {"leaf": True}),
        ("quadrature", "integrate_interval", "quadrature.integrate",
         {"on_call": tracer.count_callable("quadrature.integrand_evals",
                                           "fn")}),
        ("quadrature", "sup_on_grid", "quadrature.sup",
         {"on_call": tracer.count_callable("quadrature.sup_evals",
                                           "fn_x")}),
        ("hammerstein", "apply_T", "hammerstein.apply_T",
         {"on_call": on_apply_T}),
        ("hammerstein", "c3_bound_profile", "hammerstein.c3_bound_profile", {}),
        ("hammerstein", "kernel_limits", "hammerstein.kernel_limits", {}),
        ("hammerstein", "kernel_modulus_check", "hammerstein.modulus_check",
         {}),
        ("hammerstein", "dominator_check", "hammerstein.dominator_check", {}),
        ("cone", "verify_cone_hypotheses", "cone.verify", {}),
        ("cone", "kernel_functional_integral", "cone.kernel_profile", {}),
        ("cone", "eval_functional", "cone.eval_functional", {}),
        ("cone", "eval_functional_raw", "cone.eval_functional", {}),
        ("cone", "check_functional_properties", "cone.properties", {}),
        ("cone", "check_index_one", "cone.windows", {}),
        ("cone", "check_index_zero", "cone.windows", {}),
        ("cone", "locate_index_one_flip", "cone.windows", {}),
        ("cone", "find_solution_windows", "cone.windows", {}),
        ("solver", "picard_solve", "solver.picard", {"on_return": on_picard}),
        ("solver", "compare_with_oracle", "solver.oracle", {}),
        ("solver", "ode_oracle", "solver.oracle", {"on_return": on_oracle}),
        ("cli", "main", "cli", {}),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if name == "hammerline" or name.startswith("hammerline.")]
    for module, fname, group, options in table:
        home = importlib.import_module(f"hammerline.{module}")
        original = getattr(home, fname)
        wrapped = tracer.wrap(f"{module}.{fname}", group, original, **options)
        for mod in modules:
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapped)
