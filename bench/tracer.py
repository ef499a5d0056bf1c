"""Per-layer tracing for the socialnash benchmark, from outside the program.

install() wraps public functions of the seven modules in place.  Coarse
boundaries (the CLI entry, the solvers, the lemma checker, is_pne,
best_deviation) record spans in memory: name, start, end, the enclosing
span and the request.  Hot boundaries (perceived_cost, actual_cost,
cost_vector, social_cost) only accumulate calls and time.  Dual
arithmetic is counted, never timed, because a timer costs more than the
operation.  Self time is a boundary's time minus the time of the traced
boundaries called inside it.

A function or cache that no longer exists under its name is skipped and
its metrics are reported as missing; the traced run never fails for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

EQ = "socialnash.equilibrium"
GC = "socialnash.game_core"
NG = "socialnash.netgame"


class Probe:
    """One traced boundary; it may cover several functions of one layer."""

    def __init__(self, name, targets, *, span=True, s_name=None, self_name=None, observe=None):
        self.name = name
        self.targets = targets
        self.span = span
        self.s_name = s_name or f"{name}.s"
        # self_name "" leaves self time out of the report
        self.self_name = f"{name}.self_s" if self_name is None else self_name
        self.observe = observe
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.active = 0


def _improving(deviation) -> bool:
    # read the Fraction parts directly so the Dual counters stay untouched
    delta = deviation.delta
    return delta.std < 0 or (delta.std == 0 and delta.eps < 0)


def _probes():
    return [
        Probe("cli.main", [("socialnash.cli", "main")], self_name="cli.self_s"),
        Probe("social_matrix.load", [("socialnash.social_matrix", "load_matrix")], s_name="social_matrix.load_s", self_name=""),
        Probe("netgame.actual_cost", [(NG, "actual_cost")], span=False),
        Probe("netgame.cost_vector", [(NG, "NetworkCreationGame.cost_vector")], span=False, self_name=""),
        Probe("game_core.perceived_cost", [(GC, "perceived_cost")], span=False),
        Probe("game_core.social_cost", [(GC, "social_cost")], span=False, self_name=""),
        Probe("game_core.is_pne", [(GC, "is_pne")], self_name=""),
        Probe("game_core.best_deviation", [(GC, "best_deviation")], observe=("game_core.best_deviation.improving_frac", _improving)),
        Probe("equilibrium.enumerate", [(EQ, "enumerate_pne")], observe=("equilibrium.pne_found", lambda r: len(r.pne))),
        Probe("equilibrium.optimum", [(EQ, "brute_force_social_optimum"), (EQ, "social_optimum_graphs")]),
        Probe("equilibrium.edge_rule", [(EQ, "_pair_decisions"), (EQ, "edge_rule_profile"), (EQ, "iter_edge_rule_pne")], self_name=""),
        Probe("equilibrium.dynamics", [(EQ, "best_response_dynamics")], observe=("equilibrium.dynamics.steps", lambda r: len(r.steps))),
        Probe("analysis.verify_lemma", [("socialnash.analysis", "verify_lemma")], self_name="analysis.self_s", observe=("analysis.verdicts", len)),
    ]


# Dual methods counted per call, by metric.
DUAL_COUNTS = {
    "dual.constructed": ("__post_init__",),
    "dual.arith_calls": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__"),
    "dual.compares": ("compare", "__eq__"),
}

# lru caches read after the run: metric prefix -> (module, attribute)
CACHES = {
    "netgame.reach_cache": (NG, "_reach_totals"),
    "netgame.strategy_cache": (NG, "_strategy_space"),
    "equilibrium.benefit_table": (EQ, "_benefit_table"),
}


class Tracer:
    def __init__(self):
        self.probes = _probes()
        self.stack = []  # open frames: [start, child time, span id]
        self.span_ids = []  # ids of the open spans, innermost last
        self.spans = []  # (id, parent id, name, start, end, request)
        self.request = None
        self.counts = {name: 0 for name in DUAL_COUNTS}
        self.observed = {p.observe[0]: 0 for p in self.probes if p.observe}
        self.missing = {}  # metric -> why it could not be measured
        self.partial = {}  # metric -> targets it no longer covers

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target that exists.  A metric is missing when none of
        its targets exists; a target gone from a group is only noted."""
        for probe in self.probes:
            found = [
                self._patch(module_name, qualname, lambda fn, p=probe: self._wrap(fn, p))
                for module_name, qualname in probe.targets
            ]
            self._note(probe.name, probe.targets, found)
        for metric, methods in DUAL_COUNTS.items():
            targets = [("socialnash.dual", f"Dual.{method}") for method in methods]
            found = [
                self._patch(module_name, qualname, lambda fn, m=metric: self._counter(fn, m))
                for module_name, qualname in targets
            ]
            self._note(metric, targets, found)

    def _note(self, metric, targets, found):
        gone = [f"{m}.{q}" for (m, q), ok in zip(targets, found) if not ok]
        if len(gone) == len(targets):
            self.missing[metric] = "not found: " + ", ".join(gone)
        elif gone:
            self.partial[metric] = "not found: " + ", ".join(gone)

    def _patch(self, module_name, qualname, make) -> bool:
        try:
            module = importlib.import_module(module_name)
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, attr)
        except (ImportError, AttributeError):
            return False
        wrapped = make(original)
        if owner:
            setattr(holder, attr, wrapped)
            return True
        # rebind every module-level alias made by "from x import name"
        for name, other in list(sys.modules.items()):
            if name == "socialnash" or name.startswith("socialnash."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
        return True

    def _counter(self, fn, metric):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _enter(self, probe):
        probe.calls += 1
        probe.active += 1
        span_id = None
        if probe.span:
            span_id = len(self.spans) + len(self.span_ids)
            self.span_ids.append(span_id)
        frame = [perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, probe, frame):
        end = perf_counter()
        self.stack.pop()
        probe.active -= 1
        duration = end - frame[0]
        if self.stack:
            self.stack[-1][1] += duration
        probe.self_s += duration - frame[1]
        if not probe.active:
            probe.total += duration
        if probe.span:
            self.span_ids.pop()
            parent = self.span_ids[-1] if self.span_ids else None
            self.spans.append((frame[2], parent, probe.name, frame[0], end, self.request))

    def _wrap(self, fn, probe):
        enter, leave = self._enter, self._exit
        observed, missing = self.observed, self.missing
        key, observe = probe.observe or (None, None)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter(probe)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(probe, frame)
                    yield item

            return traced_gen

        if not probe.span:
            # inlined enter/exit: these run hundreds of thousands of times
            stack = self.stack

            @functools.wraps(fn)
            def traced_hot(*args, **kwargs):
                probe.calls += 1
                probe.active += 1
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - frame[0]
                    stack.pop()
                    probe.active -= 1
                    if stack:
                        stack[-1][1] += duration
                    probe.self_s += duration - frame[1]
                    if not probe.active:
                        probe.total += duration

            return traced_hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(probe)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(probe, frame)
            if observe is not None and key not in missing:
                try:
                    observed[key] += observe(result)
                except (AttributeError, TypeError) as exc:
                    missing[key] = f"result of {probe.name} changed shape: {exc}"
            return result

        return traced

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as name -> (value, unit); a missing one
        maps to None."""
        out = {}
        for probe in self.probes:
            gone = probe.name in self.missing
            out[f"{probe.name}.calls"] = None if gone else (probe.calls, "count")
            out[probe.s_name] = None if gone else (probe.total, "s")
            if probe.self_name:
                out[probe.self_name] = None if gone else (probe.self_s, "s")
        for metric, value in self.counts.items():
            out[metric] = None if metric in self.missing else (value, "count")
        for probe in self.probes:
            if not probe.observe:
                continue
            key = probe.observe[0]
            value = self.observed[key]
            if key in self.missing or probe.name in self.missing:
                out[key] = None
            elif key.endswith("_frac"):  # share of the probe's calls
                out[key] = (value / probe.calls if probe.calls else 0.0, "ratio")
            else:
                out[key] = (value, "count")
        for prefix, (module_name, attr) in CACHES.items():
            info = self._cache_info(module_name, attr, prefix)
            if prefix != "netgame.strategy_cache":
                out[f"{prefix}.hits"] = info and (info.hits, "count")
                lookups = info and info.hits + info.misses
                out[f"{prefix}.hit_ratio"] = info and (info.hits / lookups if lookups else 0.0, "ratio")
            out[f"{prefix}.misses"] = info and (info.misses, "count")
            out[f"{prefix}.size"] = info and (info.currsize, "count")
        return out

    def _cache_info(self, module_name, attr, prefix):
        try:
            return getattr(importlib.import_module(module_name), attr).cache_info()
        except (ImportError, AttributeError) as exc:
            self.missing[prefix] = f"{module_name}.{attr}: {exc}"
            return None


# Which end-to-end metric each per-layer metric should move, on which
# workload; written down before measuring, printed beside traced runs.
_RPS = "requests_per_s"
MOVES = {
    "dual.constructed": f"{_RPS} on full-search, dynamics; near 0 on optimum",
    "dual.arith_calls": f"{_RPS} on full-search, dynamics; near 0 on optimum",
    "dual.compares": f"{_RPS} on full-search, dynamics; near 0 on optimum",
    "social_matrix.load_s": "latency_p50_s on full-search (small)",
    "netgame.actual_cost.calls": f"{_RPS} on full-search, dynamics",
    "netgame.actual_cost.s": f"{_RPS} on full-search, dynamics",
    "netgame.cost_vector.calls": f"{_RPS} on lemmas",
    "netgame.cost_vector.s": f"{_RPS} on lemmas",
    "netgame.reach_cache.misses": "latency_p50_s on dynamics",
    "netgame.reach_cache.size": "peak_rss_mb on dynamics",
    "netgame.reach_cache.hit_ratio": "latency_p50_s on dynamics",
    "game_core.perceived_cost.calls": f"{_RPS} on full-search",
    "game_core.perceived_cost.s": f"{_RPS} on full-search",
    "game_core.perceived_cost.self_s": f"{_RPS} on full-search",
    "game_core.best_deviation.calls": f"{_RPS} on dynamics",
    "game_core.best_deviation.s": f"{_RPS} on dynamics",
    "game_core.best_deviation.improving_frac": f"{_RPS} on dynamics",
    "game_core.is_pne.calls": f"{_RPS} on lemmas",
    "game_core.is_pne.s": f"{_RPS} on lemmas",
    "game_core.social_cost.calls": f"{_RPS} on full-search, lemmas",
    "game_core.social_cost.s": f"{_RPS} on full-search, lemmas",
    "equilibrium.enumerate.calls": f"{_RPS} on full-search",
    "equilibrium.enumerate.s": f"{_RPS} on full-search",
    "equilibrium.enumerate.self_s": f"{_RPS} on full-search (the profile loop)",
    "equilibrium.pne_found": "must repeat exactly",
    "equilibrium.optimum.calls": f"{_RPS}, peak_rss_mb on optimum; {_RPS} on lemmas",
    "equilibrium.optimum.s": f"{_RPS}, peak_rss_mb on optimum; {_RPS} on lemmas",
    "equilibrium.benefit_table.misses": f"{_RPS}, peak_rss_mb on optimum",
    "equilibrium.benefit_table.hit_ratio": f"{_RPS} on optimum",
    "equilibrium.edge_rule.s": f"{_RPS} on lemmas",
    "equilibrium.dynamics.s": f"{_RPS} on dynamics",
    "equilibrium.dynamics.self_s": f"{_RPS} on dynamics",
    "equilibrium.dynamics.steps": f"{_RPS} on dynamics",
    "analysis.verify_lemma.s": f"{_RPS} on lemmas",
    "analysis.self_s": f"{_RPS} on lemmas",
    "analysis.verdicts": "1723 on lemmas; must repeat exactly",
    "cli.main.s": "latency_p50_s on lemmas, full-search",
    "cli.self_s": "latency_p50_s on lemmas, full-search (parsing, loading, JSON)",
    "cli.bytes_out": "latency_p50_s on lemmas, full-search",
    "process.cpu_frac": "0.96-0.99 when nothing else contends for the CPU",
    "trace.overhead_frac": "none: the cost of tracing itself",
}
