"""Span tracing of trajpriv's public functions from outside the program.

`Tracer` replaces each traced function at every name a caller resolves it
through (the defining module's global and each `from .x import f` copy in
the other trajpriv modules), records one span per call and restores the
originals on exit. Spans stay in memory; `layer_metrics` folds them into
per-layer busy time, self time, call counts and the counters that the
`_observe_<function>` methods attach to spans.
"""

from __future__ import annotations

import inspect
import sys
import time

# (module, function) pairs, in the order the per-layer metrics are printed.
TRACED = (
    ("core", "parse_stays"),
    ("colocation", "extract_coevents"),
    ("features", "compute_features"),
    ("fusion", "train"),
    ("mobility", "fit_mobility_model"),
    ("anonymize", "k_anonymize"),
    ("publish", "embed_trajectory"),
    ("publish", "train_toy_gan"),
    ("publish", "fit_semantic"),
    ("publish", "similarity_report"),
    ("harness", "build_pair_dataset"),
    ("harness", "run_attack"),
    ("harness", "coevent_participation"),
    ("harness", "fit_world_models"),
    ("harness", "k_anonymize_world"),
    ("harness", "publish_synthetic"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration_s(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration_s - self.child_s


class Tracer:
    """Context manager that traces every `TRACED` function of `package`.

    `anonymity_sets` collects (set, policy, model) from each traced
    `k_anonymize` call so that the caller can audit them afterwards.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.anonymity_sets = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        pkg = self.package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == pkg or name.startswith(pkg + "."))]
        for mod_name, fn_name in TRACED:
            mod = sys.modules[f"{pkg}.{mod_name}"]
            orig = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        observe = getattr(self, "_observe_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration_s
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(span, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters, read after the call returns, outside its span ----------

    def _observe_extract_coevents(self, span, args, result):
        span.attrs["all_pairs"] = args["pairs"] is None
        span.attrs["pairs"] = len(result)
        span.attrs["events"] = sum(len(v) for v in result.values())

    def _observe_fit_mobility_model(self, span, args, result):
        model, _ = result
        span.attrs["components"] = model.n_components
        span.attrs["em_iters"] = len(model.ll_trace)

    def _observe_k_anonymize(self, span, args, result):
        policy = args["policy"]
        rate = result.audit["acceptance_rate"]
        span.attrs["acceptance_rate"] = rate
        span.attrs["attempts"] = round((policy.k - 1) / rate)
        self.anonymity_sets.append((result, policy, args["model"]))


def layer_metrics(spans):
    """Per-layer metrics as {name: (value, unit)} from a list of spans.

    `<layer>.s` is busy time including traced callees, `<layer>.self_s`
    excludes them, and `<layer>.calls` counts calls.
    """
    out = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        mine = [s for s in spans if s.name == name]
        out[f"{name}.s"] = (sum(s.duration_s for s in mine), "s")
        out[f"{name}.self_s"] = (sum(s.self_s for s in mine), "s")
        out[f"{name}.calls"] = (len(mine), "count")

    def attrs(layer, key):
        return [s.attrs[key] for s in spans if s.name == layer]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    pairs = attrs("colocation.extract_coevents", "pairs")
    events = attrs("colocation.extract_coevents", "events")
    comps = attrs("mobility.fit_mobility_model", "components")
    iters = attrs("mobility.fit_mobility_model", "em_iters")
    rates = attrs("anonymize.k_anonymize", "acceptance_rate")
    attempts = attrs("anonymize.k_anonymize", "attempts")
    out["colocation.pairs"] = (sum(pairs), "count")
    out["colocation.events"] = (sum(events), "count")
    out["mobility.components_mean"] = (mean(comps), "count")
    out["mobility.em_iters"] = (sum(iters), "count")
    out["anonymize.acceptance_rate_mean"] = (mean(rates), "ratio")
    out["anonymize.acceptance_rate_min"] = (min(rates, default=0.0), "ratio")
    out["anonymize.attempts"] = (sum(attempts), "count")
    return out


def spans_to_json(spans):
    """Plain-dict spans; parents by index, times from the first start."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name,
             "parent": None if s.parent is None else index[id(s.parent)],
             "start_s": s.start - t0, "end_s": s.end - t0,
             "attrs": s.attrs} for s in spans]
