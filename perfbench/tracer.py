"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds module attributes of the fragstop package from outside
it: every public function of the seven layer modules is wrapped, and every
module attribute bound to the original (including names imported with
``from .x import y``) is pointed at the wrapper.  Nothing in the package is
edited, and `uninstall` restores every binding.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent span, job id) into flat
  arrays kept in memory;
* counter wrappers, for hot leaves called per jump or per block, only
  count calls, bucketed by the name of the enclosing span.  A counted
  leaf's time stays in its caller's self time, as does the time of the
  cheaper per-jump and per-block helpers, which are not wrapped at all.

Calls made inside worker processes are not recorded; their time shows as
self time of the span that waits for the workers.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("levy", "pathsim", "expfun", "stopsolve", "fragsim", "streams", "harness")

# Module -> layer; the CLI module belongs to the harness layer.
MODULE_LAYER = {f"fragstop.{name}": name for name in LAYERS}
MODULE_LAYER["fragstop.cli"] = "harness"

# Hot leaves: counted, never timed.  The private fragsim helpers run once
# per block and once per split.
COUNTED = {
    "fragstop.levy": ("sample_jump", "phi"),
    "fragstop.fragsim": ("_block_stream", "_split_block"),
}

# Public helpers called per jump, per segment or per block and left
# unwrapped, so that tracing costs little: their time is their caller's.
UNWRAPPED = {
    "fragstop.levy": ("psi", "split_power_mean", "validate_model", "p_lower",
                      "is_degenerate", "phi_prime0", "sample_split", "split_density"),
    "fragstop.pathsim": ("z_advance", "z_crossing_dt", "segment_exp_integral",
                         "sample_tagged_jump"),
    "fragstop.fragsim": ("fresh_state",),
}

OUTSIDE = "(outside spans)"


def _targets(module) -> dict:
    """name -> function for the wrapped functions defined in `module`."""
    counted = COUNTED.get(module.__name__, ())
    out = {}
    for name, obj in vars(module).items():
        if not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if name.startswith("_") and name not in counted:
            continue
        if name in UNWRAPPED.get(module.__name__, ()):
            continue
        out[name] = obj
    return out


class Tracer:
    """Spans and leaf counters for one traced run, kept in memory."""

    def __init__(self, job_names):
        self.names = [OUTSIDE, *job_names]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.layer_of = {name: "bench" for name in job_names}
        self.leaf_counts: dict[str, list] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.top_span = -1
        self.top_name = 0
        self.job_id = -1
        self._patches: list = []
        self._wrappers: dict = {}

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' functions and rebind every reference to them."""
        import fragstop
        from fragstop import cli, expfun, fragsim, harness, levy, pathsim, stopsolve, streams

        modules = (levy, pathsim, expfun, stopsolve, fragsim, streams, harness, cli)
        if not self._wrappers:
            spans, leaves = [], []
            for module in modules:
                layer = MODULE_LAYER[module.__name__]
                counted = COUNTED.get(module.__name__, ())
                for name, fn in _targets(module).items():
                    full = f"{layer}.{name}"
                    (leaves if name in counted else spans).append((full, layer, fn))
            for full, layer, fn in spans:
                self._ids[full] = len(self.names)
                self.names.append(full)
                self.layer_of[full] = layer
            for full, layer, fn in spans:
                self._wrappers[id(fn)] = (fn, self._span_wrapper(fn, self._ids[full]))
            for full, layer, fn in leaves:
                counts = [0] * len(self.names)
                self.leaf_counts[full] = counts
                self._wrappers[id(fn)] = (fn, self._count_wrapper(fn, counts))
        for module in (fragstop, *modules):
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name_id: int):
        perf = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = len(tracer.start)
            parent, outer = tracer.top_span, tracer.top_name
            tracer.span_name.append(name_id)
            tracer.parent.append(parent)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            tracer.top_span, tracer.top_name = idx, name_id
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.top_span, tracer.top_name = parent, outer

        span.__wrapped__ = fn
        return span

    def _count_wrapper(self, fn, counts: list):
        tracer = self

        def counted(*args, **kwargs):
            counts[tracer.top_name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def job_span(self, kind: str, job_id: int):
        """Root span of one benchmark job; spans inside it carry job_id."""
        self.job_id = job_id
        name_id = self._ids[kind]
        idx = len(self.start)
        parent, outer = self.top_span, self.top_name
        self.span_name.append(name_id)
        self.parent.append(parent)
        self.job.append(job_id)
        self.end.append(0.0)
        self.top_span, self.top_name = idx, name_id
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.top_span, self.top_name = parent, outer
            self.job_id = -1

    # -- report -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds; per-layer self time."""
        n_names = len(self.names)
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        # Inclusive time skips a span nested directly in one of the same name.
        outer = np.ones(dur.size, dtype=bool)
        outer[has_parent] = names[parent[has_parent]] != names[has_parent]
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=n_names)
        self_s = np.bincount(names, weights=self_t, minlength=n_names)
        per_name = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names) if i > 0
        }
        layers = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for name, row in per_name.items():
            layers[self.layer_of[name]] += row["self_s"]
        leaves = {}
        for name, counts in self.leaf_counts.items():
            by_caller = {self.names[i]: c for i, c in enumerate(counts) if c and i > 0}
            leaves[name] = {"calls": sum(by_caller.values()), "by_caller": by_caller}
        return {"spans": per_name, "leaves": leaves, "layer_self_s": layers}
