"""Spans around the public functions at each cgwitness module boundary.

`Tracer.install()` runs in a benchmark child process after `import cgwitness`.
It looks up each public function, replaces every binding of it across the
loaded `cgwitness.*` modules (a `from ... import` copies the name into each
caller, so patching the defining module alone would miss those calls) and
records one span per call: name, start, end, parent and a few counts taken
from the arguments. A symbol that no longer exists is reported as absent.
Spans stay in memory until `Tracer.dump()`.

`layer_metrics()` runs in run.py and turns the spans of one
traced sweep into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _scan_note(path, *a, **k):
    return {"bytes": os.path.getsize(path)}


def _marginal_note(jc, sign, *a, **k):
    return {"cells": int(jc.counts.size), "key": f"{jc.variable_pair}:{id(jc)}:{sign}"}


def _kernel_note(weights, *rest, **k):
    arrays = [np.asarray(weights)] + [np.asarray(x) for x in rest]
    return {"elements": int(arrays[0].size), "bytes": int(sum(a.nbytes for a in arrays))}


def _propagate_note(position, momentum, pipeline, *a, **k):
    return {"cell": f"{pipeline.n}:{pipeline.m}:{pipeline.pairing}", "witness": pipeline.witness_id}


def _bound_note(width_product, *a, **k):
    return {"gamma": float(width_product)}


def _method_bound_note(self, width_product, *a, **k):
    return _bound_note(width_product)


# (module, symbol, span name, note); "Class.method" patches the class.
TARGETS = [
    ("cgwitness.ingest", "load_joint_counts", "ingest.load", _scan_note),
    ("cgwitness.ingest", "global_marginal", "ingest.global_marginal", _marginal_note),
    ("cgwitness.binning", "rebin", "binning.rebin", None),
    ("cgwitness._kernels", "batch_weighted_moments", "kernels.moments", _kernel_note),
    ("cgwitness._kernels", "batch_entropy", "kernels.entropy", _kernel_note),
    ("cgwitness.uncertainty", "propagate", "uncertainty.propagate", _propagate_note),
    ("cgwitness.bound", "entropic_bound_constant", "bound.value", _bound_note),
    ("cgwitness.bound", "BoundTable.value", "bound.value", _method_bound_note),
    ("cgwitness.witnesses", "coarse_variance_witness", "witnesses.evaluate", None),
    ("cgwitness.witnesses", "coarse_entropic_witness", "witnesses.evaluate", None),
    ("cgwitness.witnesses", "naive_discrete_witness", "witnesses.evaluate", None),
    ("cgwitness.model", "sample_joint_counts", "model.sample_joint", None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs or None]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open_attrs(self) -> dict | None:
        if not self._stack:
            return None
        span = self.spans[self._stack[-1]]
        if span[4] is None:
            span[4] = {}
        return span[4]

    def wrap(self, fn, name, note=None):
        """fn, recording a span per call; note(*args) adds counts to it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # one span for a layer calling itself
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    span[4] = {**(span[4] or {}), **note(*args, **kwargs)}
                except (TypeError, AttributeError, ValueError, OSError):
                    pass  # a changed signature loses the counts, never the call
            return result

        return wrapper

    def book(self, kind: str, n: int) -> None:
        """Add n to counter `kind` of the innermost open span."""
        attrs = self._open_attrs()
        if attrs is not None and n:
            attrs[kind] = attrs.get(kind, 0) + n

    def install(self) -> None:
        """Wrap every target that exists; record the symbols that do not."""
        modules = [
            m for name, m in list(sys.modules.items()) if name == "cgwitness" or name.startswith("cgwitness.")
        ]
        for mod_name, symbol, span_name, note in TARGETS:
            owner = sys.modules.get(mod_name)
            cls_name, _, method = symbol.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, method, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{symbol}")
            elif cls_name:
                setattr(owner, method, self.wrap(fn, span_name, note))
            else:
                wrapper = self.wrap(fn, span_name, note)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

        default_rng = np.random.default_rng

        def counting_rng(seed=None):
            if isinstance(seed, _CountingGenerator):
                return seed
            return _CountingGenerator(default_rng(seed), self)

        np.random.default_rng = counting_rng

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


class _CountingGenerator:
    """numpy Generator proxy that books Poisson and normal draws on the open span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._gen, attr)

    def poisson(self, lam=1.0, size=None):
        out = self._gen.poisson(lam, size)
        lam = np.asarray(lam)
        self._tracer.book("poisson", int(np.size(out)))
        self._tracer.book("zero_mean", int(np.count_nonzero(lam == 0)) * (np.size(out) // max(lam.size, 1)))
        return out

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self._gen.normal(loc, scale, size)
        self._tracer.book("normal", int(np.size(out)))
        return out


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def self_by_layer(spans) -> dict[str, float]:
    """Summed self time of every span name."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s[0]] = out.get(s[0], 0.0) + own
    return out


def _distinct(items, key) -> int:
    return len({(s[4] or {}).get(key) for s in items} - {None})


def _ancestor(spans, idx, name):
    while idx >= 0 and spans[idx][0] != name:
        idx = spans[idx][3]
    return spans[idx] if idx >= 0 else None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced sweep process."""
    own = self_by_layer(spans)
    by: dict[str, dict] = {}
    for s in spans:
        b = by.setdefault(s[0], {"s": 0.0, "calls": 0, "items": []})
        b["s"] += s[2] - s[1]
        b["calls"] += 1
        b["items"].append(s)

    def get(name):
        return by.get(name, {"s": 0.0, "calls": 0, "items": []})

    def total(name, key):
        return sum((s[4] or {}).get(key, 0) for s in get(name)["items"])

    def ratio(a, b):
        return a / b if b else 0.0

    marg, prop, bound = get("ingest.global_marginal"), get("uncertainty.propagate"), get("bound.value")
    draws = {"poisson": 0, "normal": 0, "zero_mean": 0, "unused": 0}
    for i, s in enumerate(spans):
        a = s[4] or {}
        for key in ("poisson", "normal", "zero_mean"):
            draws[key] += a.get(key, 0)
        if a.get("normal"):
            p = _ancestor(spans, i, "uncertainty.propagate")
            if p is not None and (p[4] or {}).get("witness") == "coarse_entropic":
                draws["unused"] += a["normal"]
    bound_items = sorted(bound["items"], key=lambda s: s[1])
    return {
        "ingest.load_s": get("ingest.load")["s"],
        "ingest.load_bytes": total("ingest.load", "bytes"),
        "ingest.global_marginal_s": marg["s"],
        "ingest.global_marginal_calls": marg["calls"],
        "ingest.global_marginal_cells": total("ingest.global_marginal", "cells"),
        "ingest.marginal_reuse_ratio": ratio(_distinct(marg["items"], "key"), marg["calls"]),
        "binning.rebin_s": get("binning.rebin")["s"],
        "binning.rebin_calls": get("binning.rebin")["calls"],
        "kernels.moments_s": get("kernels.moments")["s"],
        "kernels.entropy_s": get("kernels.entropy")["s"],
        "kernels.calls": get("kernels.moments")["calls"] + get("kernels.entropy")["calls"],
        "kernels.elements": total("kernels.moments", "elements") + total("kernels.entropy", "elements"),
        "kernels.bytes_computed": total("kernels.moments", "bytes") + total("kernels.entropy", "bytes"),
        "uncertainty.propagate_s": prop["s"],
        "uncertainty.propagate_calls": prop["calls"],
        "uncertainty.self_s": own.get("uncertainty.propagate", 0.0),
        "uncertainty.poisson_draws": draws["poisson"],
        "uncertainty.jitter_draws": draws["normal"],
        "uncertainty.jitter_draws_unused": draws["unused"],
        "uncertainty.zero_mean_bin_frac": ratio(draws["zero_mean"], draws["poisson"]),
        "uncertainty.draw_reuse_ratio": ratio(_distinct(prop["items"], "cell"), prop["calls"]),
        "bound.first_value_s": bound_items[0][2] - bound_items[0][1] if bound_items else 0.0,
        "bound.value_s": bound["s"],
        "bound.calls": bound["calls"],
        "bound.distinct_width_products": _distinct(bound_items, "gamma"),
        "witnesses.evaluate_s": get("witnesses.evaluate")["s"],
        "witnesses.evaluate_calls": get("witnesses.evaluate")["calls"],
        "cli.self_s": own.get("cli", 0.0),
    }
