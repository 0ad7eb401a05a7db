"""Workloads, pinned outputs and metric definitions of the benchmark.

Each workload is one closed loop: the driver starts one fresh interpreter at
a time and waits for it.  Both drive the public CLI (``delpezzo.cli.main``).
Every output is compared with the values below, which were produced by the
package as first committed.  Why each workload was chosen, and which layers
it loads or bypasses, is the ``why`` of its entry in ``BENCHMARK.json``.

Two workloads only, so that each run can last a full minute: on a small
machine shared with other tenants, the speed of the CPUs changes by a third
for a minute or more at a time, and shorter runs spread past the bounds.
Every module is still loaded by one of them.  A single-worker count
(``count-parallel`` loads every layer it would) and the enumeration with
its round trip through the bijection are left for a later change.

The ``smoke_*`` entries replace the inputs and pinned values with tiny ones, so
that the whole pipeline (spawn, checks, tracing) runs in about a second.
"""

from __future__ import annotations

# Relative tolerance for the floating-point constants.  The pinned values
# agree with their own declared errors far below this; the slack admits a
# change of summation order, never a wrong constant.
FLOAT_RTOL = 1e-9

WORKLOADS = {
    "count-parallel": {
        "argv": ["count", "--bmax", "10000000", "--threads", "2"],
        "expect": {"N_pos": 84525002, "n_uh": 350260765},
        "smoke_argv": ["count", "--bmax", "10000", "--threads", "2"],
        "smoke_expect": {"N_pos": 33754, "n_uh": 147317},
    },
    "constants": {
        "argv": ["constants", "--threads", "1"],
        "expect": {"alpha": "1/288", "c": 0.8740191847640372,
                   "tau": 0.03881394053936259, "beta": -0.28871324218933553},
        "smoke_argv": ["constants", "--prime-cutoff", "1000", "--beta-cutoff", "10",
                       "--threads", "1"],
        "smoke_expect": {"alpha": "1/288", "c": 0.8740191847640372,
                         "tau": 0.03887322626797744, "beta": -0.28766335004837595},
    },
}

# name -> unit, better
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> unit, better, which end-to-end metric it should move on which workload
PER_LAYER = {
    "torsor.count_torsor.s": ("s", "lower", "wall_s on count-parallel; nothing on constants"),
    "torsor.count_torsor.self_s": ("s", "lower", "wall_s on count-parallel; nothing on constants"),
    "torsor.count_torsor.n_pos": ("count", "higher", "base of ns_per_point; fixed by the answer"),
    "torsor.ns_per_point": ("ns/point", "lower", "wall_s on count-parallel; nothing on constants"),
    "torsor.count_torsor.child_cpu_s": ("s", "lower", "wall_s on count-parallel without raising cpu_s"),
    "torsor.count_torsor.workers": ("count", "higher", "base of parallel_eff"),
    "torsor.count_torsor.parallel_eff": ("ratio", "higher", "wall_s on count-parallel without raising cpu_s"),
    "arith.sqrts_minus_one.s": ("s", "lower", "wall_s on count-parallel"),
    "arith.sqrts_minus_one.calls": ("count", "lower", "wall_s on count-parallel (one call per base pair)"),
    "arith.sqrts_minus_one.roots": ("count", "lower", "wall_s on count-parallel (roots walked per base pair)"),
    "arith.sqrt_minus_one_count.calls": ("count", "lower", "wall_s on count-parallel"),
    "arith.linear_term_constant.s": ("s", "lower", "wall_s on constants only"),
    "arith.linear_term_constant.self_s": ("s", "lower", "wall_s on constants only (the beta sum loop)"),
    "arith.warm_dint_cache.s": ("s", "lower", "wall_s on constants only"),
    "arith.warm_dint_cache.values": ("count", "lower", "base of dint.us_per_value"),
    "arith.dint.us_per_value": ("us/value", "lower", "wall_s on constants only"),
    "arith.primes_up_to.s": ("s", "lower", "wall_s on constants"),
    "constants.tamagawa_euler_product.self_s": ("s", "lower", "wall_s on constants"),
    "constants.real_density_integral.s": ("s", "lower", "wall_s on constants"),
    "constants.archimedean_density.s": ("s", "lower", "wall_s on constants"),
    "constants.constant_bundle.self_s": ("s", "lower", "wall_s on constants"),
    "surface.count_degenerate.s": ("s", "lower", "wall_s on count-parallel"),
    "cli.parse_args.s": ("s", "lower", "setup_s and wall_s on the CLI workloads"),
    "cli.emit_report.s": ("s", "lower", "wall_s on the CLI workloads"),
    "bench.untraced_wall_s": ("s", "lower", "base of trace_overhead_s"),
    "bench.traced_wall_s": ("s", "lower", "base of trace_overhead_s"),
    "bench.trace_overhead_s": ("s", "lower", "none: cost of the wrappers, traced minus untraced wall_s"),
}


def inputs(workload: str, smoke: bool) -> tuple[list, dict]:
    """(the CLI arguments of the child, the pinned outputs it must produce)."""
    w = WORKLOADS[workload]
    prefix = "smoke_" if smoke else ""
    return w[prefix + "argv"] + ["--no-timestamp"], w[prefix + "expect"]
