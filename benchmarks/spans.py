"""Spans around the calls into each layer of ``snspd_pnr``, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``TRACED`` wherever a
module of the package holds them, so a call is recorded the way its caller
makes it: ``snspd_pnr.cli.read_time_tags``, ``snspd_pnr.sim.occupied_element_counts``,
``snspd_pnr.fit.mixture_bin_masses`` and so on.  Each call becomes a span
(id, parent, name, start, end, work size, phase) kept in memory and written
out by ``Tracer.dump`` when the run ends.  The functions in ``COUNTED`` are
called about 900 000 times per bootstrapped fit, so they are counted against
the innermost open span instead; their time stays in that span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _rows(table) -> int:
    return int(np.size(table.trigger_ps))


def _plan_events(plan) -> int:
    return len(plan.n_bar_values) * int(plan.events_per_source)


# (module, function) -> work size of one call, from (args, kwargs, result)
TRACED = {
    ("io", "read_time_tags"): lambda a, k, r: _rows(r),
    ("io", "read_histogram_csv"): lambda a, k, r: int(np.size(r.counts)),
    ("io", "write_histogram_csv"): lambda a, k, r: int(np.size(a[1].counts)),
    ("histogram", "ArrivalHistogram.from_events"): lambda a, k, r: int(np.size(a[1])),  # a[0] is the class
    ("sim", "simulate_tags"): lambda a, k, r: _plan_events(a[0]),
    ("sim", "sweep_total_width"): lambda a, k, r: _plan_events(a[0]),
    ("overlap", "occupied_element_counts"): lambda a, k, r: int(np.size(a[1])),
    ("fit", "fit_histogram"): lambda a, k, r: int(k.get("n_bootstrap", 0)),
    ("fit", "mixture_from_params"): lambda a, k, r: 1,
    ("fit", "total_width"): lambda a, k, r: int(k.get("n_bootstrap", 200)),
    ("dist", "mixture_bin_masses"): lambda a, k, r: len(a[0].weights) * int(np.size(a[1])),
    ("dist", "conditioned_poisson_weights"): lambda a, k, r: 1,
    ("dist", "emg_sample"): lambda a, k, r: int(a[2]),
    ("dist", "mixture_moments"): lambda a, k, r: 1,
    ("geom", "geom_mc"): lambda a, k, r: int(a[2]) * len(a[1]),
    ("geom", "geom_histogram"): lambda a, k, r: int(a[2]),
}
COUNTED = {("budget", "sigma_total"), ("budget", "tau_at"), ("budget", "mu_scaling")}


class Tracer:
    """Span recorder for one process; single-threaded by construction (SNSPD_PNR_THREADS=1)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, size, phase]
        self.stack: list[int] = []
        self.counts: dict[str, dict[int, int]] = {}  # counted name -> {innermost span id: calls}
        self.phase = ""
        self.missing: list[str] = []
        self.patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def span(self, name: str, fn, size=None):
        """Wrap ``fn`` so that each call is recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, self.stack[-1] if self.stack else -1, name, 0.0, 0.0, 0, self.phase]
            self.spans.append(rec)
            self.stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
            if size is not None:
                rec[5] = size(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts.setdefault(name, {}), self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = stack[-1] if stack else -1
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every reference to a traced function in the package's modules."""
        modules = {k: v for k, v in sys.modules.items() if k == "snspd_pnr" or k.startswith("snspd_pnr.")}
        for (layer, qual), size in list(TRACED.items()) + [(key, None) for key in sorted(COUNTED)]:
            home = modules.get(f"snspd_pnr.{layer}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{layer}.{qual}")
                continue
            raw = vars(owner)[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.span(name, raw.__func__, size)))
                continue
            wrapped = self.span(name, raw, size) if size is not None else self.counter(name, raw)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def self_time(self) -> dict[int, float]:
        """Span time minus the time its child spans cover, per span id."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                                     "end": s[4], "size": s[5], "phase": s[6]}) + "\n")
            for name, per_span in sorted(self.counts.items()):
                for sid, n in sorted(per_span.items()):
                    fh.write(json.dumps({"counted": name, "parent": sid, "calls": n}) + "\n")
