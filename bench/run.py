"""Benchmark driver for delpezzo.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Runs one workload of ``workloads.py`` as a
closed loop for about S seconds: one fresh interpreter at a time
(``bench/child.py``), importing delpezzo from the checkout's ``src``, with
``DELPEZZO_THREADS`` unset and ``--threads`` always given.  Every output is
checked against pinned values; a repetition that exits non-zero or gives a
wrong output counts as failed and its timings are left out.

With ``--trace 0`` the result holds the end-to-end metrics, as medians over
the repetitions: wall_s (spawn to exit), setup_s (spawn until delpezzo is
imported and argv parsed; also sampled by set-up-only probes), cpu_s (user +
system of the process and its reaped children) and peak_rss_mb (largest
maximum RSS among them).  With ``--trace 1`` it alternates untraced and
traced repetitions and holds the per-layer metrics of ``tracer.py``, plus
the tracing overhead.  The seed only shuffles how probes and repetitions
interleave; the inputs themselves are fixed, because their outputs are pinned.

The last line on stdout is the result as JSON.  A fuller record (samples,
provenance, spans) is written under ``.bench_tmp/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
PROBES = 5  # set-up-only processes per untraced run, besides each repetition's own
KILL_AFTER_S = 165  # a child still running this long after the start is killed


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns and checks the child processes of one run."""

    def __init__(self, workload: str, smoke: bool, scratch: Path, started: float):
        self.argv, self.expect = workloads.inputs(workload, smoke)
        self.scratch = scratch
        self.started = started
        self.serial = 0
        self.attempted = self.failed = 0  # repetitions, not probes
        self.failures: list[str] = []
        self.numpy = None
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DELPEZZO_THREADS", "PYTHONSTARTUP")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1", TMPDIR=str(scratch))

    def spawn(self, mode: str, trace: bool = False):
        """Run one child to its end.  Returns its measurement, or None if it
        failed (the reason is appended to ``failures``)."""
        n = self.serial = self.serial + 1
        out, report = self.scratch / f"m{n}.json", self.scratch / f"r{n}.json"
        spec = {"mode": mode, "argv": self.argv, "trace": trace, "out": str(out),
                "report": str(report), "src": str(SRC)}
        timeout = max(1.0, KILL_AFTER_S - (time.monotonic() - self.started))
        with open(self.scratch / f"log{n}.txt", "wb") as log:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.scratch,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crash, if any

        reason = None
        doc = json.loads(out.read_text()) if out.exists() else None
        if proc.returncode != 0 or doc is None:
            tail = (self.scratch / f"log{n}.txt").read_text(errors="replace")[-400:]
            reason = f"{mode} exited with {proc.returncode}: {tail.strip()}"
        elif mode == "rep":
            reason = self._check(report)
        if mode == "rep":
            self.attempted += 1
            self.failed += reason is not None
        if reason:
            self.failures.append(reason)
            return None
        self.numpy = doc["numpy"]
        return {
            "wall_s": (t1 - t0) / 1e9,
            "setup_s": (doc["setup_ns"] - t0) / 1e9,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "trace": doc.get("trace"),
        }

    def _check(self, report: Path):
        """None if the outputs are the pinned ones, else what is wrong."""
        got = json.loads(report.read_text())["rows"][0]
        for key, want in self.expect.items():
            have = got.get(key)
            if isinstance(want, float):
                ok = isinstance(have, float) and math.isclose(
                    have, want, rel_tol=workloads.FLOAT_RTOL)
            elif isinstance(want, int):
                ok = have is not None and int(have) == want
            else:
                ok = have == want
            if not ok:
                return f"{key} = {have!r}, expected {want!r}"
        return None


def _commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "delpezzo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def untraced(runner: Runner, rng: random.Random, seconds: float, started: float):
    """Repetitions while another fits in ``seconds``, with the set-up probes
    spread among them in a seeded order.  Returns samples and the schedule."""
    samples = {name: [] for name in workloads.END_TO_END}
    schedule, probe_s, rep_s = [], [], []

    def measure(mode):
        t0 = time.monotonic()
        m = runner.spawn(mode)
        schedule.append(mode)
        (rep_s if mode == "rep" else probe_s).append(time.monotonic() - t0)
        if m is not None:
            for name in workloads.END_TO_END if mode == "rep" else ("setup_s",):
                samples[name].append(m[name])

    probes_left = PROBES
    while True:
        k = rng.randint(0, probes_left)
        for _ in range(k):
            measure("probe")
        probes_left -= k
        measure("rep")
        left = seconds - (time.monotonic() - started)
        if max(rep_s) + probes_left * max(probe_s, default=0.5) > left:
            break
    for _ in range(probes_left):
        measure("probe")
    return samples, schedule


def traced(runner: Runner, rng: random.Random, seconds: float, started: float) -> tuple[dict, list, dict]:
    """Pairs of one untraced and one traced repetition, in seeded order, while
    another pair fits.  Returns per-layer samples, schedule and one trace."""
    samples = {name: [] for name in workloads.PER_LAYER}
    walls = {False: [], True: []}
    schedule = []
    first_trace = None
    pair_s = []
    while True:
        t0 = time.monotonic()
        order = [False, True]
        rng.shuffle(order)
        for trace in order:
            m = runner.spawn("rep", trace=trace)
            schedule.append("traced" if trace else "rep")
            if m is None:
                continue
            walls[trace].append(m["wall_s"])
            if trace:
                first_trace = first_trace or m["trace"]
                for name, value in tracer.layer_metrics(m["trace"]).items():
                    samples[name].append(value)
        pair_s.append(time.monotonic() - t0)
        if max(pair_s) > seconds - (time.monotonic() - started):
            break
    if walls[False] and walls[True]:
        plain, with_trace = statistics.median(walls[False]), statistics.median(walls[True])
        samples["bench.untraced_wall_s"] = [plain]
        samples["bench.traced_wall_s"] = [with_trace]
        samples["bench.trace_overhead_s"] = [with_trace - plain]
    return samples, schedule, first_trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args(argv)
    # a stop request unwinds through Runner.spawn, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"no delpezzo sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.smoke, scratch, started)
        rng = random.Random(args.seed)
        runner.spawn("probe")  # warm-up: byte-compile and page cache, not measured
        if args.trace:
            samples, schedule, first_trace = traced(runner, rng, args.seconds, started)
            defs = workloads.PER_LAYER
        else:
            samples, schedule = untraced(runner, rng, args.seconds, started)
            defs = workloads.END_TO_END
            first_trace = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = runner.attempted, runner.failed
    for reason in runner.failures:
        print(f"failed: {reason}", file=sys.stderr)
    if any(not values for values in samples.values()):
        print("no successful repetition; no result", file=sys.stderr)
        return 1

    metrics = {name: {"value": statistics.median(samples[name]), "unit": defs[name][0]}
               for name in defs}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "provenance": {
            "commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": runner.numpy,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": runner.failures, "schedule": schedule,
        "samples": samples, "metrics": metrics, "spans": first_trace,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {attempted} attempted, {failed} failed, error_rate "
          f"{failed / attempted:g}; record in {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
