"""Spans and call counts at mminf's module boundaries, recorded from outside.

`install` replaces the names one mminf module imported from another with
wrappers, so the program's own files stay unchanged. A span records name,
start, end and the span that was open when it began; spans stay in memory
until the campaign ends. Functions called millions of times per campaign are
counted rather than spanned, and their time falls in their caller's span.

Pool workers forked by `mminf --jobs N` inherit the wrappers but not the
parent's memory, so their spans are lost: with a pool, everything below
`cli.main` is the parent's wait.
"""

from __future__ import annotations

import importlib
import itertools
import time

import numpy as np

# (module whose global is replaced, attribute, span name). The first group is
# what the campaign in worker.py calls; the rest are the imports across modules.
SPANNED = [
    ("mminf.cli", "main", "cli.main"),
    ("mminf.bounds", "verify_theorem", "bounds.verify_theorem"),
    ("mminf.oracle", "exact_lemma_check", "oracle.exact_lemma_check"),
    ("mminf.cli", "verify_kernel_lemma", "bounds.verify_kernel_lemma"),
    ("mminf.cli", "verify_theorem", "bounds.verify_theorem"),
    ("mminf.cli", "verify_generalized", "bounds.verify_generalized"),
    ("mminf.cli", "sharpness_decay", "bounds.sharpness_decay"),
    ("mminf.cli", "uniformized_kernel", "oracle.uniformized_kernel"),
    ("mminf.cli", "kernel_entry", "kernel.kernel_entry"),
    ("mminf.bounds", "kernel_log_matrix", "kernel.kernel_log_matrix"),
    ("mminf.bounds", "log_semigroup_apply", "kernel.log_semigroup_apply"),
    ("mminf.bounds", "convolution_log_matrix", "distributions.convolution_log_matrix"),
    ("mminf.kernel", "convolution_log_matrix", "distributions.convolution_log_matrix"),
    ("mminf.oracle", "poisson_window", "distributions.poisson_window"),
]

# ~2M calls per semigroup campaign, from log_semigroup_apply
COUNTED = [("mminf.kernel", "kernel_entry", "kernel.kernel_entry")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index or -1)
        self.counters: dict[str, itertools.count] = {}
        self.cases = 0  # CaseResults returned by the bounds verifiers
        self.uniformized: list[tuple] = []  # (lam, mu, t, N, tol) per call
        self._stack = [-1]

    def spanned(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        hooks = {"oracle.uniformized_kernel": self._note_uniformized}
        for _, _, name in SPANNED:
            if name.startswith("bounds.verify_"):
                hooks[name] = self._count_cases
        for module, attr, name in SPANNED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.spanned(name, getattr(mod, attr), hooks.get(name)))
        for module, attr, name in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counted(name, getattr(mod, attr)))

    def _count_cases(self, args, report):
        self.cases += len(report.cases)

    def _note_uniformized(self, args, result):
        params, t, n_top, tol = args
        self.uniformized.append((params.lam, params.mu, t, n_top, tol))

    def span_array(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 4)

    def summary(self) -> dict:
        """{name: {"calls", "self_s"}} per traced function, with counted calls
        added; self time is duration minus the time of direct child spans."""
        arr = self.span_array()
        nid, start, end, parent = arr.T
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(arr))
        self_ns = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_ns[i]) * 1e-9}
            for i, name in enumerate(self.names)
        }
        for name, counter in self.counters.items():
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += next(counter)
        return out
