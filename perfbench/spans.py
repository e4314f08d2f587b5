"""In-memory span tracer wrapped around dualcal's public functions.

Nothing inside the package changes: `install` replaces each public
module-level function of the traced layers with a wrapper, in its own
module and in every dualcal module that bound it with `from ... import`.
Each call records one span (name, start, end, parent) in flat arrays;
per-name call counts, inclusive time and self time (duration minus the
time covered by child spans) are accumulated as the spans close.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("liegroup", "kinematics", "chain", "numerics", "solver", "sdp_init",
          "simulate", "evaluate", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.incl = []
        self.self_time = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, incl, self_time = self.calls, self.incl, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                incl[nid] += dur
                self_time[nid] += dur - frame[1]

        return traced

    def totals(self):
        """{name: (calls, inclusive s, self s)} accumulated so far."""
        return {n: (self.calls[i], self.incl[i], self.self_time[i])
                for i, n in enumerate(self.names)}

    def save(self, path):
        t0 = self.span_start[0] if self.span_start else 0.0
        np.savez(path, names=np.array(self.names),
                 span_name=np.frombuffer(self.span_name, dtype=np.int32),
                 span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 span_start=np.frombuffer(self.span_start) - t0,
                 span_end=np.frombuffer(self.span_end) - t0,
                 calls=np.array(self.calls), incl_s=np.array(self.incl),
                 self_s=np.array(self.self_time))


def install(tracer):
    """Wrap the public functions of every traced layer, everywhere they are bound."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"dualcal.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "dualcal" or modname.startswith("dualcal."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
