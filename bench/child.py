"""One `degenlap` CLI invocation in a fresh interpreter, as the benchmark runs it.

    python bench/child.py '<spec json>'

The spec gives the CLI argv, the workload's entry function, whether to trace,
and the path of the result file this process writes.  The parent measures
wall time, CPU time and peak RSS from the outside; this process adds, in the
result file:

* untraced: the monotonic time of the first call into the entry function,
  which ends the invocation's set-up;
* traced: spans (name, start, end, parent) recorded around the calls into
  each layer, and counts taken at the same boundaries.

Names are wrapped where their callers look them up: a function imported with
`from ... import` is rebound in every importing module, with one wrapper per
function so that no call is counted twice.
"""
from __future__ import annotations

import importlib
import json
import sys
import time


def rebind(original, replacement) -> None:
    """Point every name in the loaded degenlap modules that refers to
    `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "degenlap" or modname.startswith("degenlap.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def resolve(target: str):
    """(owner, attribute, current value) for "module:Attr.path"."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install_probe(entry: str, state: dict) -> None:
    _, _, fn = resolve(entry)

    def probe(*args, **kwargs):
        state.setdefault("first_call", time.monotonic())
        return fn(*args, **kwargs)

    rebind(fn, probe)


class Recorder:
    """Spans and counts kept in memory until the invocation ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name id, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.last_eval = (None, None)   # (discretization, values) of the last energy evaluation

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, observe=None):
        """`fn` recording a span named `name` (a string, a callable of the
        call's arguments, or None for no span) and calling
        observe(recorder, args, kwargs, result) after each call."""
        clock = time.monotonic
        stack, spans = self.stack, self.spans
        fixed_id = self._name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                name_id = fixed_id if fixed_id is not None else self._name_id(name(args, kwargs))
                span = [name_id, clock(), None, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def hook(self, label: str, target: str, observe=None, name=None, span=True) -> None:
        """Wrap `target`, recording spans named `name` (default `label`) unless
        `span` is false; a target that no longer exists is noted as missing."""
        try:
            owner, attr, fn = resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(label)
            return
        wrapped = self.wrap((name or label) if span else None, fn, observe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            rebind(fn, wrapped)

    def install(self) -> None:
        span_hooks = [
            ("geometry.heisenberg1", "degenlap.geometry:heisenberg1"),
            ("geometry.sample_ball", "degenlap.geometry:sample_ball"),
            ("geometry.metric_distance", "degenlap.geometry:metric_distance"),
            ("weights.gather_ball_samples", "degenlap.weights:gather_ball_samples",
             _count_kept),
            ("weights.maximal_function", "degenlap.weights:maximal_function"),
            ("weights.ap_constant", "degenlap.weights:ap_constant", _count_flags),
            ("weights.a1_constant", "degenlap.weights:a1_constant", _count_flags),
            ("weights.rh_constant", "degenlap.weights:rh_constant", _count_flags),
            ("weights.balance_check", "degenlap.weights:balance_check", _count_flags),
            ("energy.solve_dirichlet", "degenlap.energy:solve_dirichlet", _read_solve_report),
            ("energy.energy_gradient", "degenlap.energy:_Discretization.energy_gradient",
             _count_linesearch),
            ("energy.hessian", "degenlap.energy:_Discretization.hessian"),
            ("grids.to_csv", "degenlap.grids:GridFunction.to_csv"),
            ("io.write_json", "degenlap.io:write_json"),
            ("io.write_csv", "degenlap.io:write_csv"),
            ("io.write_pgm", "degenlap.io:write_pgm"),
            ("diagnostics.holder_exponent", "degenlap.diagnostics:holder_exponent"),
            ("diagnostics.oscillation", "degenlap.diagnostics:oscillation"),
            ("distortion.jacobian", "degenlap.distortion:jacobian"),
            ("distortion.distortion_scalars", "degenlap.distortion:distortion_scalars"),
            ("distortion.column_identity_check",
             "degenlap.distortion:column_identity_check"),
        ]
        for label, target, *observe in span_hooks:
            self.hook(label, target, *observe)
        self.hook("catalog.verify_fixture", "degenlap.catalog:verify_fixture",
                  name=lambda args, kwargs: "catalog.verify_fixture."
                  + str(args[0] if args else kwargs.get("name")))
        # Points drawn, read from the `count` argument of the two private
        # draw helpers of gather_ball_samples; no public boundary sees them.
        self.hook("weights._draw_in_ball", "degenlap.weights:_draw_in_ball",
                  lambda rec, a, k, r: rec.add("weights.samples_drawn", a[2]), span=False)
        self.hook("weights._sample_near_singularity",
                  "degenlap.weights:_sample_near_singularity",
                  lambda rec, a, k, r: rec.add("weights.samples_drawn", a[3]), span=False)
        self._install_cg()

    def _install_cg(self) -> None:
        """Wrap the linear solver where energy.py looks it up (`spla.cg`),
        counting iterations through its callback and reading its exit status."""
        energy = sys.modules["degenlap.energy"]
        spla = getattr(energy, "spla", None)
        if spla is None or not hasattr(spla, "cg"):
            self.missing.append("energy.cg")
            return
        real_cg = spla.cg

        def counted_cg(*args, **kwargs):
            user_callback = kwargs.pop("callback", None)

            def callback(xk):
                self.add("energy.cg.iters")
                if user_callback is not None:
                    user_callback(xk)

            return real_cg(*args, callback=callback, **kwargs)

        def observe(rec, args, kwargs, result):
            if result[1] != 0:
                rec.add("energy.cg.nonconverged")

        energy.spla = _Namespace(spla, cg=self.wrap("energy.cg", counted_cg, observe))


class _Namespace:
    """A module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_kept(rec, args, kwargs, samples):
    rec.add("weights.samples_kept", sum(len(p) for p in samples.points))


def _count_flags(rec, args, kwargs, report):
    traces = [getattr(report, f, None) for f in ("ap_estimate", "a1_estimate", "rh_estimate")]
    flags = [t.unbounded_suspected for t in traces if t is not None]
    if hasattr(report, "unbounded_suspected"):
        flags.append(report.unbounded_suspected)
    rec.add("weights.unbounded_flags", sum(bool(f) for f in flags))


def _read_solve_report(rec, args, kwargs, result):
    report = result[1]
    rec.add("energy.newton_steps", report.iterations)
    rec.add("energy.delta_levels", len(report.delta_schedule))


def _count_linesearch(rec, args, kwargs, result):
    # A line-search trial evaluates a fresh array; the evaluation that starts
    # the next Newton step (or ends the solve) reuses the accepted one.
    disc, values = args[0], args[1]
    last_disc, last_values = rec.last_eval
    if disc is last_disc and values is not last_values:
        rec.add("energy.linesearch_trials")
    rec.last_eval = (disc, values)


def main() -> int:
    spec = json.loads(sys.argv[1])
    import degenlap.cli as cli
    import numpy
    import scipy

    state: dict = {}
    recorder = None
    if spec["trace"]:
        recorder = Recorder()
        recorder.install()
    else:
        install_probe(spec["entry"], state)
    code = cli.main(spec["argv"])
    result = {
        "exit_code": code,
        "first_call": state.get("first_call"),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if recorder is not None:
        result.update(names=recorder.names, spans=recorder.spans,
                      counts=recorder.counts, missing=recorder.missing)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
