"""Spans around the public functions of delpezzo, installed at run time.

``Tracer.install`` replaces module attributes with timing wrappers.  Each
name is patched in the module that looks it up at call time: ``torsor``
bound ``sqrts_minus_one`` and ``sqrt_minus_one_count`` at import, so those
are patched there, while ``cli`` and ``constant_bundle`` import lazily from
their home modules.  Spans stay in memory and are written once, by
``Tracer.dump``, when the run ends.

Work done inside fork-pool workers records no span; ``count_torsor`` covers
it with the children's CPU time from ``getrusage``.

``layer_metrics`` turns a dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

_now = time.perf_counter_ns

# (module the name is looked up in, attribute, span name)
TARGETS = (
    ("delpezzo.cli", "main", "cli.main"),
    ("delpezzo.cli", "parse_args", "cli.parse_args"),
    ("delpezzo.cli", "run", "cli.run"),
    ("delpezzo.cli", "emit_report", "cli.emit_report"),
    ("delpezzo.torsor", "sqrt_minus_one_count", "arith.sqrt_minus_one_count"),
    ("delpezzo.surface", "count_degenerate", "surface.count_degenerate"),
    ("delpezzo.constants", "constant_bundle", "constants.constant_bundle"),
    ("delpezzo.constants", "real_density_integral", "constants.real_density_integral"),
    ("delpezzo.constants", "archimedean_density", "constants.archimedean_density"),
    ("delpezzo.constants", "tamagawa_euler_product", "constants.tamagawa_euler_product"),
    ("delpezzo.constants", "primes_up_to", "arith.primes_up_to"),
    ("delpezzo.arith", "linear_term_constant", "arith.linear_term_constant"),
)


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, child_ns]
        self.stack = []  # indices of open spans
        self.counters = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0, parent, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = _now()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- wrappers that also count work ----------------------------------------

    def _roots(self, fn):
        def counted(q):
            roots = fn(q)
            self.count("arith.sqrts_minus_one.roots", len(roots))
            return roots
        return self.span("arith.sqrts_minus_one", functools.wraps(fn)(counted))

    def _warm_dint_cache(self, fn):
        traced = self.span("arith.warm_dint_cache", fn)

        @functools.wraps(fn)
        def wrapper(values):
            values = list(values)
            self.count("arith.warm_dint_cache.values", len({int(c) for c in values}))
            return traced(values)
        return wrapper

    def _count_torsor(self, fn):
        traced = self.span("torsor.count_torsor", fn)

        @functools.wraps(fn)
        def wrapper(B, workers=None):
            own = _cpu(resource.RUSAGE_SELF)
            kids = _cpu(resource.RUSAGE_CHILDREN)
            n = traced(B, workers)
            self.count("torsor.count_torsor.self_cpu_s", _cpu(resource.RUSAGE_SELF) - own)
            self.count("torsor.count_torsor.child_cpu_s", _cpu(resource.RUSAGE_CHILDREN) - kids)
            self.count("torsor.count_torsor.workers", workers or 1)
            self.count("torsor.count_torsor.n_pos", n)
            return n
        return wrapper

    def install(self) -> None:
        """Patch every target; the modules must already be importable."""
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.span(name, getattr(mod, attr)))
        torsor = importlib.import_module("delpezzo.torsor")
        arith = importlib.import_module("delpezzo.arith")
        torsor.sqrts_minus_one = self._roots(torsor.sqrts_minus_one)
        torsor.count_torsor = self._count_torsor(torsor.count_torsor)
        arith.warm_dint_cache = self._warm_dint_cache(arith.warm_dint_cache)

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
                 "child_ns": s[4]}
                for s in self.spans
            ],
            "counters": self.counters,
        }


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace

def _totals(trace: dict) -> dict:
    """name -> [calls, total_s, self_s] over the spans."""
    out = {}
    for s in trace["spans"]:
        t = out.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end_ns"] - s["start_ns"]
        t[0] += 1
        t[1] += dur / 1e9
        t[2] += (dur - s["child_ns"]) / 1e9
    return out


def layer_metrics(trace: dict) -> dict:
    """Per-layer values of one traced run.  A layer the workload bypasses
    reads 0, so the bypass itself is visible in the record."""
    tot = _totals(trace)
    ctr = trace["counters"]

    def s(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    n_pos = ctr.get("torsor.count_torsor.n_pos", 0)
    workers = ctr.get("torsor.count_torsor.workers", 0)
    count_s = s("torsor.count_torsor")
    dint_values = ctr.get("arith.warm_dint_cache.values", 0)
    cpu = ctr.get("torsor.count_torsor.self_cpu_s", 0.0) + ctr.get(
        "torsor.count_torsor.child_cpu_s", 0.0)
    return {
        "torsor.count_torsor.s": count_s,
        "torsor.count_torsor.self_s": self_s("torsor.count_torsor"),
        "torsor.count_torsor.n_pos": n_pos,
        "torsor.ns_per_point": ratio(count_s, n_pos, 1e9),
        "torsor.count_torsor.child_cpu_s": ctr.get("torsor.count_torsor.child_cpu_s", 0.0),
        "torsor.count_torsor.workers": workers,
        "torsor.count_torsor.parallel_eff": ratio(cpu, workers * count_s, 1.0),
        "arith.sqrts_minus_one.s": s("arith.sqrts_minus_one"),
        "arith.sqrts_minus_one.calls": calls("arith.sqrts_minus_one"),
        "arith.sqrts_minus_one.roots": ctr.get("arith.sqrts_minus_one.roots", 0),
        "arith.sqrt_minus_one_count.calls": calls("arith.sqrt_minus_one_count"),
        "arith.linear_term_constant.s": s("arith.linear_term_constant"),
        "arith.linear_term_constant.self_s": self_s("arith.linear_term_constant"),
        "arith.warm_dint_cache.s": s("arith.warm_dint_cache"),
        "arith.warm_dint_cache.values": dint_values,
        "arith.dint.us_per_value": ratio(s("arith.warm_dint_cache"), dint_values, 1e6),
        "arith.primes_up_to.s": s("arith.primes_up_to"),
        "constants.tamagawa_euler_product.self_s": self_s("constants.tamagawa_euler_product"),
        "constants.real_density_integral.s": s("constants.real_density_integral"),
        "constants.archimedean_density.s": s("constants.archimedean_density"),
        "constants.constant_bundle.self_s": self_s("constants.constant_bundle"),
        "surface.count_degenerate.s": s("surface.count_degenerate"),
        "cli.parse_args.s": s("cli.parse_args"),
        "cli.emit_report.s": s("cli.emit_report"),
    }
