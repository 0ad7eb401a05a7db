"""Command-line front end.

Subcommands: count, verify, constants, densities, zeta, decompose.
Reports are CSV (RFC 4180 quoting, UTF-8, LF) or JSON; counts are exact
integers (serialized as decimal strings in JSON beyond 2^53).  Exit codes:
0 success, 1 usage error, 2 verification failure, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from .errors import DelPezzoError, SizeCapError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAP = 3

MIN_PRIME_CUTOFF = 100  # the Euler products of constants and zeta reject less


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    bmax: int = 0
    method: str = "torsor"
    grid: list = field(default_factory=list)
    primes: list = field(default_factory=list)
    rmax: int = 2
    prime_cutoff: int = 10**5
    quad_tol: float = 1e-12
    beta_cutoff: int = 100
    threads: int = 1
    fmt: str = "json"
    out: Optional[str] = None
    no_timestamp: bool = False
    suite: str = "all"
    s_value: float = 2.0
    mode: str = "auto"


def _threads_default(flag_value) -> int:
    if flag_value is not None:
        return max(1, int(flag_value))
    env = os.environ.get("DELPEZZO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"DELPEZZO_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def parse_args(argv) -> RunConfig:
    """Strict argv parsing into a RunConfig; raises UsageError on bad input."""
    parser = _Parser(prog="delpezzo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("count", help="count points up to a height bound")
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--method", choices=("naive", "oracle", "torsor"), default="torsor")
    common(p)

    p = sub.add_parser("verify", help="run consistency suites; exit 2 on failure")
    p.add_argument("--suite", choices=("bijection", "identities", "all"), default="all")
    p.add_argument("--bmax", type=int, default=1000)
    common(p)

    p = sub.add_parser("constants", help="compute the full constant bundle")
    p.add_argument("--prime-cutoff", type=int, default=10**6)
    p.add_argument("--quad-tol", type=float, default=1e-12)
    p.add_argument("--beta-cutoff", type=int, default=100)
    common(p)

    p = sub.add_parser("densities", help="modular solution densities vs closed form")
    p.add_argument("--p", default="2,3,5,7", help="comma-separated primes")
    p.add_argument("--rmax", type=int, default=2)
    p.add_argument("--mode", choices=("auto", "naive", "tables"), default="auto")
    common(p)

    p = sub.add_parser("zeta", help="series layer values at a real argument")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--p", default="2,3,5", help="primes for local factors")
    p.add_argument("--prime-cutoff", type=int, default=10**5)
    common(p)

    p = sub.add_parser("decompose", help="exact decomposition diagnostic over a grid")
    p.add_argument("--grid", default="1000,10000,100000")
    p.add_argument("--beta-cutoff", type=int, default=100)
    common(p)

    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    cfg.fmt = ns.format
    cfg.out = ns.out
    cfg.threads = _threads_default(ns.threads)
    cfg.no_timestamp = ns.no_timestamp
    if ns.command in ("count", "verify"):
        if ns.bmax < 1:
            raise UsageError("--bmax must be >= 1")
        cfg.bmax = ns.bmax
    if ns.command in ("constants", "zeta"):
        if ns.prime_cutoff < MIN_PRIME_CUTOFF:
            raise UsageError(f"--prime-cutoff must be >= {MIN_PRIME_CUTOFF}")
        cfg.prime_cutoff = ns.prime_cutoff
    if ns.command in ("constants", "decompose"):
        if ns.beta_cutoff < 1:
            raise UsageError("--beta-cutoff must be >= 1")
        cfg.beta_cutoff = ns.beta_cutoff
    if ns.command in ("densities", "zeta"):
        cfg.primes = _prime_list(ns.p)
    if ns.command == "count":
        cfg.method = ns.method
    elif ns.command == "verify":
        cfg.suite = ns.suite
    elif ns.command == "constants":
        cfg.quad_tol = ns.quad_tol
    elif ns.command == "densities":
        if ns.rmax < 1:
            raise UsageError("--rmax must be >= 1")
        cfg.rmax, cfg.mode = ns.rmax, ns.mode
    elif ns.command == "zeta":
        # the Euler factors, computed at every s, converge only for s > -1/4
        if not (math.isfinite(ns.s) and ns.s > -0.25):
            raise UsageError(f"--s must be finite and > -1/4, got {ns.s}")
        cfg.s_value = ns.s
    elif ns.command == "decompose":
        try:
            cfg.grid = sorted(int(v) for v in ns.grid.split(",") if v)
        except ValueError as exc:
            raise UsageError(f"bad grid: {ns.grid}") from exc
        if cfg.grid and cfg.grid[0] < 1:
            raise UsageError("--grid bounds must be >= 1")
    return cfg


def _prime_list(text: str) -> list[int]:
    from .arith import is_prime

    try:
        primes = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"bad prime list: {text}") from exc
    for p in primes:
        if not is_prime(p):
            raise UsageError(f"--p takes primes, got {p}")
    return primes


# ---------------------------------------------------------------------------
# report emission

def _json_safe(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) <= 2**53 else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return str(value)


def render_report(
    rows: list[dict], fmt: str, timestamp: Optional[str], fieldnames=None
) -> str:
    """Render homogeneous rows; field order follows the first row (or the
    supplied ``fieldnames`` when there are no rows)."""
    if fmt == "csv":
        buf = io.StringIO()
        if timestamp:
            buf.write(f"# generated {timestamp}\n")
        names = list(rows[0].keys()) if rows else list(fieldnames or [])
        if names:
            writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        return buf.getvalue()
    doc = {"rows": [_json_safe(r) for r in rows]}
    if timestamp:
        doc = {"generated_at": timestamp, **doc}
    return json.dumps(doc, indent=2) + "\n"


_SCHEMAS = {
    "decompose": ("B", "n_uh", "main_delta", "main_linear", "residual", "residual_scaled"),
    "densities": ("p", "r", "estimate", "closed_form", "abs_error"),
}


def emit_report(rows: list[dict], cfg: RunConfig) -> None:
    ts = None
    if not cfg.no_timestamp:
        ts = datetime.now(timezone.utc).isoformat()
    text = render_report(rows, cfg.fmt, ts, _SCHEMAS.get(cfg.command))
    if cfg.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# command bodies

def _cmd_count(cfg: RunConfig) -> tuple[int, list[dict]]:
    from . import surface, torsor

    if cfg.method == "naive":
        b = surface.count_naive(cfg.bmax)
        rows = [{
            "B": b.B, "method": "naive", "n_uh": b.n_uh, "N_pos": b.n_pos,
            "s_total": b.s_total, "s_pp": b.s_pp, "z_degenerate": b.z_degenerate,
        }]
    elif cfg.method == "oracle":
        rows = [{
            "B": cfg.bmax, "method": "oracle",
            "N_pos": surface.count_positive_oracle(cfg.bmax),
        }]
    else:
        n = torsor.count_torsor(cfg.bmax, workers=cfg.threads)
        n_uh = 4 * n + surface.count_degenerate(cfg.bmax).points
        rows = [{"B": cfg.bmax, "method": "torsor", "N_pos": n, "n_uh": n_uh}]
    return EXIT_OK, rows


def _cmd_verify(cfg: RunConfig) -> tuple[int, list[dict]]:
    from . import surface, torsor

    rows = []
    ok = True
    if cfg.suite in ("bijection", "all"):
        B = min(cfg.bmax, surface.ORACLE_CAP)
        n_t = torsor.count_torsor(B, workers=cfg.threads)
        n_o = surface.count_positive_oracle(B)
        eq = n_t == n_o
        rows.append({"check": "count_equality", "B": B,
                     "torsor": n_t, "oracle": n_o, "pass": bool(eq)})
        ok &= eq
        rt_ok = True
        for t in torsor.iter_torsor_points(min(cfg.bmax, 1000)):
            if torsor.from_surface(torsor.to_surface(t)) != t:
                rt_ok = False
                break
        rows.append({"check": "round_trip", "B": min(cfg.bmax, 1000), "pass": rt_ok})
        ok &= rt_ok
    if cfg.suite in ("identities", "all"):
        B = min(cfg.bmax, surface.NAIVE_CAP)
        b = surface.count_naive(B)
        ids = (
            b.s_total == 4 * b.s_pp
            and b.s_pp == 2 * b.n_pos
            and 2 * b.n_uh == b.s_total + b.z_degenerate
        )
        rows.append({"check": "sign_identities", "B": B, "pass": bool(ids)})
        ok &= ids
    return (EXIT_OK if ok else EXIT_VERIFY), rows


def _cmd_constants(cfg: RunConfig) -> tuple[int, list[dict]]:
    from .constants import constant_bundle

    b = constant_bundle(cfg.prime_cutoff, cfg.quad_tol, cfg.beta_cutoff)
    rows = [{
        "c": b.c, "c_error": b.c_error,
        "omega_inf": b.omega_inf, "omega_inf_error": b.omega_inf_error,
        "alpha": f"{b.alpha.numerator}/{b.alpha.denominator}",
        "tau": b.tau, "tau_tail": b.tau_tail,
        "beta": b.beta_val, "beta_tail": b.beta_tail,
        "tau_H": b.tau_H, "tau_H_error": b.tau_H_error,
        "peyre": b.peyre, "peyre_error": b.peyre_error,
        "leading_coeff": b.leading_coeff,
        "residue_display": b.residue_display,
        "prime_cutoff": b.prime_cutoff, "quad_tol": b.quad_tol,
        "beta_cutoff": b.beta_cutoff,
    }]
    return EXIT_OK, rows


def _cmd_densities(cfg: RunConfig) -> tuple[int, list[dict]]:
    from .constants import local_density_brute, local_density_closed

    rows = []
    for p in cfg.primes:
        closed = local_density_closed(p)
        for r in range(1, cfg.rmax + 1):
            est = local_density_brute(p, r, mode=cfg.mode)
            rows.append({
                "p": p, "r": r,
                "estimate": float(est),
                "closed_form": float(closed),
                "abs_error": abs(float(est - closed)),
            })
    return EXIT_OK, rows


def _cmd_zeta(cfg: RunConfig) -> tuple[int, list[dict]]:
    from . import zeta

    s = cfg.s_value
    rows = []

    def add(name, ev):
        rows.append({"name": name, "argument": ev.argument, "value": ev.value,
                     "error": ev.error})

    if s > 1:
        add("zeta", zeta.zeta_real(s))
    if s > 0:
        add("L_chi", zeta.l_chi_real(s))
    if s > 1:
        add("main_product", zeta.main_zeta_product(s))
    if s > 5 / 6:
        add("correction_product", zeta.correction_zeta_product(s))
    for p in cfg.primes:
        rows.append({"name": f"euler_factor_p{p}", "argument": s,
                     "value": zeta.euler_factor(p, s), "error": 0.0})
    h0, h0t = zeta.residual_product_at_zero(cfg.prime_cutoff)
    rows.append({"name": "residual_product_at_0", "argument": 0.0,
                 "value": h0, "error": h0t})
    g1, g1e = zeta.leading_factor_at_one(cfg.prime_cutoff)
    rows.append({"name": "leading_factor_at_1", "argument": 1.0,
                 "value": g1, "error": g1e})
    return EXIT_OK, rows


def _cmd_decompose(cfg: RunConfig) -> tuple[int, list[dict]]:
    from .zeta import count_decomposition

    rows = count_decomposition(cfg.grid, workers=cfg.threads, beta_cutoff=cfg.beta_cutoff)
    return EXIT_OK, rows


_COMMANDS = {
    "count": _cmd_count,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "densities": _cmd_densities,
    "zeta": _cmd_zeta,
    "decompose": _cmd_decompose,
}


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration and emit its report."""
    code, rows = _COMMANDS[cfg.command](cfg)
    emit_report(rows, cfg)
    return code


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return run(cfg)
    except SizeCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DelPezzoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
