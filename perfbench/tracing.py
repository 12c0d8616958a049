"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of each ``fedtradeoff``
module with a wrapper that records a span (name, start, end, parent) and a
call count. Names another module imported by value (``verify.exact_big_m``,
``cli.run_trial``, ...) are patched too, so a call is seen whichever name it
goes through. ``Tracer.remove`` puts the originals back.

Spans are kept in memory: every call is folded into per-name totals (calls,
total seconds, self seconds = total minus the time of child spans), per
(parent, child) call counts, and the first ``span_cap`` spans verbatim.
The tracer assumes one thread; traced runs use one worker.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("models", "datagen", "protocol", "attack", "bounds", "verify",
          "experiment", "io", "cli", "rng")

# The subcommand handlers are the body of ``cli.main``: left unwrapped so that
# ``cli.main.self_s`` holds the CLI's own scoring and glue.
UNWRAPPED = {"cli": ("cmd_train", "cmd_attack", "cmd_verify", "cmd_sweep",
                     "cmd_estimate_constants")}


class Tracer:
    def __init__(self, span_cap: int = 20000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [span id, name, child seconds]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        span_id, name, child = frame
        dur = t1 - t0
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.edges[(parent[1] if parent else "", name)] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else 0, name, t0, t1))
        else:
            self.spans_dropped += 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``. ``after(tracer, result, args,
        kwargs)`` may add counters once the call returns; what it returns is
        handed to the caller."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, t0, time.perf_counter())
            if after is not None:
                result = after(self, result, args, kwargs)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in UNWRAPPED.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                after = _AFTER.get(name)
                # The timings sidecar holds wall-clock figures, so its size
                # varies from run to run; it stays out of io.bytes_written.
                if (layer == "io" and attr.startswith("write_")
                        and attr != "write_timings"):
                    after = _after_io_write
                replacements[fn] = self.wrap(name, fn, after)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacements[value])

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


# Counters read off a call's arguments or result, keyed by span name.

def _after_invert(tracer, trace, args, kwargs):
    tracer.counters["attack.invert_gradient.iters"] += trace.iters_run
    tracer.counters["attack.invert_gradient.truncated"] += int(trace.truncated)
    return trace


def _after_constants(tracer, est, args, kwargs):
    tracer.counters["datagen.estimate_constants.pairs_used"] += est.meta["pairs_used"]
    tracer.counters["datagen.estimate_constants.pairs_attempted"] += est.meta["num_pairs"]
    return est


def _after_run(tracer, result, args, kwargs):
    tracer.counters["protocol.run.rounds"] += len(result.records)
    return result


def _after_sampler(tracer, draw, args, kwargs):
    """Replace the returned sampler by one whose draws are spans too."""
    inner = tracer.wrap("datagen.sampler", draw)

    def counted(n):
        tracer.counters["datagen.sampler.rows"] += n
        return inner(n)
    return counted


def _after_io_write(tracer, result, args, kwargs):
    """Size of the file written; the workloads never append."""
    path = args[0] if args else kwargs["path"]
    tracer.counters["io.bytes_written"] += os.path.getsize(path)
    return result


_AFTER = {
    "attack.invert_gradient": _after_invert,
    "datagen.estimate_constants": _after_constants,
    "protocol.run": _after_run,
    "datagen.fresh_sampler": _after_sampler,
}
