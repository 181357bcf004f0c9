"""In-memory spans around the library's layer boundaries.

The benchmark records spans from its own files: ``Tracer.wrap`` replaces a
module or class attribute with a wrapper that records one span per call,
and ``Tracer.restore`` puts every original back. A span is (name, start,
end, parent index, work units, raised). Spans stay in memory until the run
ends; ``summary`` turns them into self time per name and per layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str, units: int = 1):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        raised = False
        t0 = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, units, raised)

    def wrap(self, owner, attr: str, units=None) -> None:
        """Record a span around every call of ``owner.attr``.

        The span is named after the module that defines the function, so a
        name imported into another module keeps its own layer, e.g.
        ``estimators.var_empirical`` or ``dist.SkewT.logpdf``.
        ``units(args, kwargs)`` gives the work count of one call (default 1).
        """
        original = vars(owner)[attr]
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__qualname__}"

        def traced(*args, **kwargs):
            with self.span(name, units(args, kwargs) if units else 1):
                return original(*args, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Calls, units, raised, total and self seconds per span name and per layer.

        A span's self time is its duration minus its children's durations;
        spans nest because the traced run is single-threaded. The layer is
        the first part of the name. ``top_s`` sums the spans without a parent.
        """
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name = defaultdict(lambda: {"calls": 0, "units": 0, "raised": 0,
                                       "total_s": 0.0, "self_s": 0.0})
        top = 0
        for i, (name, t0, t1, parent, units, raised) in enumerate(self.spans):
            row = by_name[name]
            row["calls"] += 1
            row["units"] += units
            row["raised"] += int(raised)
            row["total_s"] += (t1 - t0) / 1e9
            row["self_s"] += (t1 - t0 - child[i]) / 1e9
            if parent < 0:
                top += t1 - t0
        layers = defaultdict(float)
        for name, row in by_name.items():
            layers[name.split(".")[0]] += row["self_s"]
        return {"spans": dict(by_name), "layers": dict(layers), "top_s": top / 1e9}

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], t0, t1, p, u, int(r)] for n, t0, t1, p, u, r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "units", "raised"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def instrument(tracer: Tracer) -> None:
    """Wrap the attributes the CLI and harness call through, layer by layer."""
    from esbacktest import dist, harness, simulation

    def size(args, kwargs):
        # observations the call reads: a secured sample or an array
        first = args[0]
        return first.n if hasattr(first, "n") else len(first)

    def draws(args, kwargs):
        return args[1]

    for attr in ("load_returns", "split_samples", "run_batch", "run_compare_batch",
                 "rolling_backtest", "compare_backtest", "var_normal", "es_normal", "classify"):
        tracer.wrap(harness, attr)
    # estimator, statistic and secured-sample names imported into harness
    for attr in ("var_empirical", "es_empirical", "moments", "t_stat", "g_stat", "z_stat",
                 "build_secured", "build_normalized"):
        tracer.wrap(harness, attr, size)
    tracer.wrap(simulation, "true_risk")
    tracer.wrap(simulation, "mc_null", lambda a, k: a[0].runs)
    for attr in ("garch_fit", "fit_iid", "fit_and_simulate"):
        tracer.wrap(simulation, attr)
    # draws per path include the burn-in, so units/calls gives the useful ratio
    tracer.wrap(simulation, "garch_simulate",
                lambda a, k: a[1] + k.get("burn_in", simulation.GARCH_BURN_IN))
    for cls in (dist.Normal, dist.StudentT, dist.SkewT):
        tracer.wrap(cls, "sample", draws)
    tracer.wrap(dist.SkewT, "logpdf", lambda a, k: a[1].size)
