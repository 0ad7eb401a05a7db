"""Command-line front end.

Subcommands: count, verify, constants, densities, zeta, decompose.
Reports are CSV (RFC 4180 quoting, UTF-8, LF) or JSON; counts are exact
integers (serialized as decimal strings in JSON beyond 2^53).  Exit codes:
0 success, 1 usage error, 2 verification failure or other error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Optional

from .errors import DelPezzoError, SizeCapError

# The --threads worker processes are the program's only parallelism, yet OpenBLAS
# starts a helper thread when numpy is imported, which busy-waits for about
# 0.1 s of CPU in every process.  So BLAS gets one thread unless the user set
# a number.  The console script and ``python -m delpezzo.cli`` load this
# module before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAP = 3

MIN_PRIME_CUTOFF = 100  # the Euler products of constants and zeta reject less
# --threads, DELPEZZO_THREADS and the usable CPUs are capped here: each worker
# is a forked process, and more than this would only exhaust process ids
MAX_THREADS = 256


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _threads_default(flag_value) -> int:
    """The --threads value, else DELPEZZO_THREADS (checked like the flag),
    else the number of CPUs this process may run on, at most MAX_THREADS."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get("DELPEZZO_THREADS")
    if env:
        try:
            return _threads(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"DELPEZZO_THREADS {exc}") from exc
    if hasattr(os, "sched_getaffinity"):  # honours taskset and cpusets
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_THREADS)


# Flag types: each parses one flag's text and checks its domain.  A failed
# check raises ArgumentTypeError, which argparse turns into a UsageError.

def _checked(parse, ok, domain):
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
    return convert


def _int_at_least(lo: int):
    return _checked(int, lambda n: n >= lo, f"an integer >= {lo}")


_threads = _checked(int, lambda n: 1 <= n <= MAX_THREADS,
                    f"an integer in [1, {MAX_THREADS}]")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _all_prime(ps: list[int]) -> bool:
    from .arith import is_prime

    return all(is_prime(p) for p in ps)


# is_prime raises ValueError from 3.3e24 on, where it would only guess
_primes = _checked(_int_list, _all_prime,
                   "a comma-separated list of primes below 3.3e24, where primality is proven")
_grid = _checked(lambda text: sorted(_int_list(text)), lambda g: not g or g[0] >= 1,
                 "a comma-separated list of integers >= 1")
# the Euler factors, computed at every s, converge only for s > -1/4
_s_value = _checked(float, lambda s: math.isfinite(s) and s > -0.25, "finite and > -1/4")


def _writable_file(path: str) -> bool:
    """True for "-" (stdout), for an existing file this process may write
    to, and for a new file in an existing directory it may write to."""
    if path == "-":
        return True
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    folder = os.path.dirname(path) or "."
    return os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)


_out = _checked(str, _writable_file,
                "a writable file, or a new file in an existing, writable directory")


def parse_args(argv) -> argparse.Namespace:
    """Strict argv parsing; raises UsageError on bad input.  The namespace
    carries the subcommand's ``body``, which ``run`` calls."""
    parser = _Parser(prog="delpezzo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, body, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(body=body)
        return p

    p = command("count", _cmd_count, "count points up to a height bound")
    p.add_argument("--bmax", type=_int_at_least(1), required=True)
    p.add_argument("--method", choices=("naive", "oracle", "torsor"), default="torsor")

    p = command("verify", _cmd_verify, "run consistency suites; exit 2 on failure")
    p.add_argument("--suite", choices=("bijection", "identities", "all"), default="all")
    p.add_argument("--bmax", type=_int_at_least(1), default=1000)

    p = command("constants", _cmd_constants, "compute the full constant bundle")
    p.add_argument("--prime-cutoff", type=_int_at_least(MIN_PRIME_CUTOFF), default=10**6)
    p.add_argument("--beta-cutoff", type=_int_at_least(1), default=100)

    p = command("densities", _cmd_densities, "modular solution densities vs closed form")
    p.add_argument("--p", dest="primes", type=_primes, default="2,3,5,7",
                   help="comma-separated primes")
    p.add_argument("--rmax", type=_int_at_least(1), default=2)
    p.add_argument("--mode", choices=("naive", "tables"), default="tables")

    p = command("zeta", _cmd_zeta, "series layer values at a real argument")
    p.add_argument("--s", type=_s_value, default=2.0)
    p.add_argument("--p", dest="primes", type=_primes, default="2,3,5",
                   help="primes for local factors")
    p.add_argument("--prime-cutoff", type=_int_at_least(MIN_PRIME_CUTOFF), default=10**5)

    p = command("decompose", _cmd_decompose, "exact decomposition diagnostic over a grid")
    p.add_argument("--grid", type=_grid, default="1000,10000,100000")
    p.add_argument("--beta-cutoff", type=_int_at_least(1), default=100)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=_out, default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=_threads, default=None)
        p.add_argument("--no-timestamp", action="store_true")

    cfg = parser.parse_args(argv)
    cfg.threads = _threads_default(cfg.threads)
    return cfg


# ---------------------------------------------------------------------------
# report emission

def _json_safe(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) <= 2**53 else str(value)
    if isinstance(value, float):
        return value
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


def emit_report(rows: list[dict], cfg: argparse.Namespace) -> None:
    """Write the report to --out or stdout, flushed; a failed write or flush
    raises DelPezzoError."""
    ts = None
    if not cfg.no_timestamp:
        ts = datetime.now(timezone.utc).isoformat()
    text = render_report(rows, cfg.format, ts, _SCHEMAS.get(cfg.command))
    to_stdout = cfg.out in (None, "-")
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()  # here, not at exit, where a failure would escape
        else:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:
            _discard_stdout()
        raise DelPezzoError(f"cannot write the report: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device: a buffered stdout keeps
    a failed flush's bytes, whose retry at exit would make the exit code 120."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stream with no descriptor keeps nothing at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# ---------------------------------------------------------------------------
# command bodies

def _cmd_count(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
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


def _cmd_verify(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
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


def _cmd_constants(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
    from .constants import constant_bundle

    b = constant_bundle(cfg.prime_cutoff, cfg.beta_cutoff)
    row = dict(vars(b))  # a copy: the bundle is frozen
    row["alpha"] = str(b.alpha)
    return EXIT_OK, [row]


def _cmd_densities(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
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


def _cmd_zeta(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
    from . import zeta

    s = cfg.s
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
    h0 = zeta.residual_product_at_zero(cfg.prime_cutoff)
    rows.append({"name": "residual_product_at_0", "argument": 0.0,
                 "value": h0[0], "error": h0[1]})
    g1, g1e = zeta.leading_factor_at_one(h0)
    rows.append({"name": "leading_factor_at_1", "argument": 1.0,
                 "value": g1, "error": g1e})
    return EXIT_OK, rows


def _cmd_decompose(cfg: argparse.Namespace) -> tuple[int, list[dict]]:
    from .zeta import count_decomposition

    rows = count_decomposition(cfg.grid, workers=cfg.threads, beta_cutoff=cfg.beta_cutoff)
    return EXIT_OK, rows


def run(cfg: argparse.Namespace) -> int:
    """Execute a parsed configuration and emit its report."""
    code, rows = cfg.body(cfg)
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
