"""Span tracing of `fbq` from outside the package.

`Tracer.install` replaces each traced public function at every name that
binds it inside `fbq` (the package namespace and each module that imports
it), so calls are recorded whichever module makes them; `uninstall` puts the
originals back.  A span is (name, start, end, parent span, task index) and
spans stay in memory until `write` saves them.  `PowerSeries` products are
only counted, since a span per product would cost more than the product.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

import fbq
import fbq.ctmc

# (module, function) of every span; the span is named "<module>.<function>"
# without the package prefix
TRACED = (
    ("fbq.experiments", "optimize_intermediate_speeds"),
    ("fbq.experiments", "optimize_threshold"),
    ("fbq.single", "solve_general"),
    ("fbq.single", "solve_k1_closed_form"),
    ("fbq.single", "evaluate_cost_single"),
    ("fbq.multi", "solve_threshold"),
    ("fbq.multi", "d_roots"),
    ("fbq.multi", "evaluate_cost_multi"),
    ("fbq.series", "kernel_root_series"),
    ("fbq.series", "kernel_root_pair_at_1"),
    ("fbq.series", "cancel_divide"),
    ("fbq.linsys", "solve_probability_system"),
    ("fbq.baselines", "fcfs_L"),
    ("fbq.baselines", "las_L"),
    ("fbq.ctmc", "ctmc_solve"),
    ("fbq.simulate", "simulate"),
)


def _single_base(model, *_):
    s = model.service
    return (model.lam, s.nu1, s.nu2, s.q, model.speeds.levels[0], model.speeds.levels[-1], model.K)


def _pool_roots_key(model, *_):
    return (model.lam, model.mu1, model.mu2, model.q, model.m)


def _sim_kind(config, *_):
    kind = {fbq.SingleServerModel: "single", fbq.MultiServerModel: "multi",
            fbq.ThreePhaseModel: "three_phase"}[type(config.model)]
    return kind, config.jobs


# what each span notes about its arguments
PROBES = {
    "single.solve_general": _single_base,
    "multi.d_roots": _pool_roots_key,
    "linsys.solve_probability_system": lambda rows, *_: len(rows),
    "ctmc.spsolve": lambda a, *_: a.shape[0],
    "simulate.simulate": _sim_kind,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_of = array("i")
        self.notes: dict[int, object] = {}
        self.counts = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def span(self, name: str, fn, probe=None):
        """`fn` wrapped so that each call records one span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack, notes = self._stack, self.notes

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.task_of.append(self.task)
            self.end.append(0.0)
            if probe is not None:
                notes[sid] = probe(*args, **kwargs)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _patch(self, holder, attr, replacement):
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "fbq" or n.startswith("fbq.")]
        for modname, fname in TRACED:
            original = getattr(sys.modules[modname], fname)
            name = f"{modname[4:]}.{fname}"
            wrapped = self.span(name, original, PROBES.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        self._patch(fbq.ctmc.spla, "spsolve",
                    self.span("ctmc.spsolve", fbq.ctmc.spla.spsolve, PROBES["ctmc.spsolve"]))
        mul = self.counter("series.PowerSeries.mul", fbq.PowerSeries.__mul__)
        self._patch(fbq.PowerSeries, "__mul__", mul)
        self._patch(fbq.PowerSeries, "__rmul__", mul)

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # --- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttask\n")
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[k]]}\t{self.start[k]!r}\t{self.end[k]!r}\t"
                         f"{self.parent[k]}\t{self.task_of[k]}\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures named "<module>.<function>.<stat>"."""
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.total_s"] = float(dur[sel].sum())
            out[f"{name}.self_s"] = float(self_time[sel].sum())
        out["series.PowerSeries.mul.calls"] = self.counts["series.PowerSeries.mul"]

        def notes_of(name):
            k = self.names.index(name)
            return [(sid, self.notes[sid]) for sid in np.flatnonzero(nid == k)]

        for name, stat in (("single.solve_general", "shared_base_share"),
                           ("multi.d_roots", "repeat_share")):
            keys = [key for _, key in notes_of(name)]
            out[f"{name}.{stat}"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        sizes = [n for _, n in notes_of("linsys.solve_probability_system")]
        out["linsys.solve_probability_system.mean_n"] = float(np.mean(sizes)) if sizes else 0.0
        out["linsys.solve_probability_system.max_n"] = max(sizes, default=0)
        out["ctmc.states_solved"] = sum(n for _, n in notes_of("ctmc.spsolve"))
        for kind in ("single", "multi", "three_phase"):
            runs = [(sid, jobs) for sid, (k, jobs) in notes_of("simulate.simulate") if k == kind]
            busy = sum(dur[sid] for sid, _ in runs)
            out[f"simulate.arrivals_per_s.{kind}"] = sum(j for _, j in runs) / busy if busy else 0.0
        return out
