"""qdc benchmark: set-up, time to a verdict and eval latency per workload.

Run from the repository root:

    python3 perfbench/run.py --workload check-sl2-d3 --seed 1 \
        --seconds 30 --trace 0

Each session runs in a fresh single-threaded process (``worker.py``) and
calls qdc's public functions from outside.  A run starts the workload's
fixed number of full sessions, so every latency statistic comes from the
same number of samples on any machine.  Short filler sessions (set-up only,
or set-up and a cheap verdict) run between them, at least the workload's
minimum number, and more at the end while they are expected to end within
``--seconds``.  It checks every output against the oracles in
``oracle.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` it runs one untraced and one traced session and reports the
per-layer metrics of ``spans.py`` instead.  The line before the result
holds machine info, seeds and per-session detail.  The end-to-end times
are in reference seconds, wall time scaled by the machine's speed as
``worker.SpeedProbe`` measures it.  The exit code is 0 only
when every output was correct.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle   # noqa: E402
import spans    # noqa: E402
import streams  # noqa: E402

ALL_SUITES = ("hopf", "bicovariance", "leibniz", "cartan", "roundtrip")

# rmatrix None means the packaged slq2.rmatrix, as `qdc check` uses.
# "sessions" full sessions run the phases; "filler" sessions are set-up
# only ("setup") or set-up and the verdict phase ("verdict").  A run has at
# least "min_fillers" of them, spread before the full sessions, and adds
# more at the end while time is left.
WORKLOADS = {
    "check-sl2-d3": {
        "rmatrix": None, "cap": 3, "degree": 3, "f00": "trace",
        "suites": ALL_SUITES, "phases": ("verdict", "stream"),
        "stream": {"n": 2, "max_degree": 6, "count": 1504},
        "sessions": 1, "filler": "setup", "min_fillers": 6,
    },
    "sl3-d1": {
        "rmatrix": "perfbench/data/slq3.rmatrix", "cap": 1, "degree": 1,
        "f00": "trace", "suites": ("hopf", "bicovariance", "roundtrip"),
        "phases": ("verdict", "stream"),
        "stream": {"n": 3, "max_degree": 1, "count": 1024},
        "sessions": 1, "filler": "setup", "min_fillers": 2,
    },
    "eval-sl2-stream": {
        "rmatrix": None, "cap": 3, "degree": 3, "f00": "trace",
        "suites": ("hopf",), "phases": ("verdict", "stream"),
        "stream": {"n": 2, "max_degree": 6, "count": 1024},
        "sessions": 4, "filler": "verdict", "min_fillers": 10,
    },
}

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("eval_p50_ms", "ms"),
              ("eval_p99_ms", "ms"), ("evals_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

DEADLINE_S = 175.0

# Sessions read and write bytecode here, inside the checkout, whatever the
# environment says: set-up then measures an import from bytecode, as an
# installed qdc has, and not a compile of the sources.
PYCACHE = ROOT / ".bench_build" / "pycache"


class BenchError(Exception):
    pass


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "loadavg": os.getloadavg(),
            "git_sha": git_sha()}


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(job, deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("time budget used up before a session could start")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=str(ROOT),
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("session did not finish within the time budget")
    if proc.returncode != 0:
        raise BenchError("session failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, p):
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def tail_percentile(n):
    """Highest of 99/95/90/75/50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 10 * 100:
            return p
    return 50


def eval_samples(wl):
    """Expressions per run: fixed by the workload, not by the machine."""
    return wl["sessions"] * wl["stream"]["count"]


class Tally:
    """Counts attempted and failed operations over every session."""

    def __init__(self, workload, wl, checks, texts):
        self.expected = oracle.EXPECTED[workload]
        self.n = wl["stream"]["n"]
        self.checks = checks
        self.texts = texts
        self.scalars = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def session(self, s):
        self.attempted += 1
        if not oracle.wedge_dims_ok(self.n, s["wedge_dims"]):
            self._fail("wedge dimensions %s" % s["wedge_dims"])
        if "verdict_s" in s:
            self.attempted += len(self.expected)
            bad = oracle.verdict_failures(self.expected, s["rows"])
            if bad:
                self.failed += bad
                self.problems.append("verdict table differs: %s" % s["rows"])
        if "stream_s" not in s:
            return
        mismatches = set(s["reparse_mismatches"])
        for i, (check, text) in enumerate(zip(self.checks, self.texts)):
            self.attempted += 1
            got = s["renders"][i]
            if str(i) in s["errors"]:
                self._fail("%s raised %s" % (text, s["errors"][str(i)]))
            elif i in mismatches:
                self._fail("%s: rendering %s does not re-parse to itself"
                           % (text, got))
            elif check == "identity" and got != "0":
                self._fail("%s rendered %s, not 0" % (text, got))
            elif check == "scalar" and not self._scalar_ok(text, got):
                self._fail("%s rendered %s, sympy disagrees" % (text, got))

    def _scalar_ok(self, text, got):
        if self.scalars is None:
            self.scalars = oracle.ScalarOracle()
        return self.scalars.agrees(text, got)


def make_job(wl, exprs, seed):
    return {"root": str(ROOT), "rmatrix": wl["rmatrix"], "cap": wl["cap"],
            "degree": wl["degree"], "f00": wl["f00"],
            "suites": list(wl["suites"]), "phases": list(wl["phases"]),
            "exprs": [text for _, text in exprs],
            "checks": [check for check, _ in exprs],
            "seed": seed, "mode": "session", "trace": False, "probe": True}


def filler_job(wl, job):
    if wl["filler"] == "setup":
        return dict(job, mode="setup")
    return dict(job, phases=["verdict"], exprs=[], checks=[])


def measure(wl, job, seconds, deadline):
    # Fillers between the full sessions make the medians of setup_s and
    # verdict_s span the whole run, as the full sessions' metrics do.
    start = time.perf_counter()
    filler, sessions, fillers, filler_s = filler_job(wl, job), [], [], 0.0

    def add_filler():
        nonlocal filler_s
        t0 = time.perf_counter()
        fillers.append(run_worker(filler, deadline))
        filler_s += time.perf_counter() - t0

    for _ in range(wl["sessions"]):
        for _ in range(wl["min_fillers"] // wl["sessions"]):
            add_filler()
        sessions.append(run_worker(job, deadline))
    while (len(fillers) < wl["min_fillers"] or time.perf_counter() - start
           + filler_s / len(fillers) <= seconds):
        add_filler()
    return sessions, fillers


def end_to_end(wl, sessions, fillers):
    lat = sorted(x for s in sessions for x in s["latencies"])
    if len(lat) != eval_samples(wl):
        raise BenchError("%d eval samples, the workload has %d"
                         % (len(lat), eval_samples(wl)))
    p = tail_percentile(len(lat))
    verdicts = [s["verdict_s"] for s in sessions + fillers if "verdict_s" in s]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in sessions + fillers),
        "verdict_s": statistics.median(verdicts),
        "eval_p50_ms": nearest_rank(lat, 50) * 1e3,
        "eval_p99_ms": nearest_rank(lat, p) * 1e3,
        "evals_per_s": len(lat) / sum(s["stream_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }
    detail = {"eval_samples": len(lat), "eval_tail_percentile": p,
              "setup_samples": len(sessions) + len(fillers),
              "verdict_samples": len(verdicts)}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, detail


def per_layer(base, traced):
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["session_s"] / base["session_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.METRICS}


def session_summary(s):
    keys = ("setup_s", "wall_setup_s", "verdict_s", "wall_verdict_s",
            "verdict_cpu_s", "stream_s", "wall_stream_s", "stream_cpu_s",
            "session_s", "wall_session_s", "rss_mb", "speed")
    return {k: s[k] for k in keys if k in s}


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdc" / "__init__.py").is_file():
        print("error: no qdc sources at %s" % (ROOT / "src" / "qdc"),
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    stream = wl["stream"]
    exprs = streams.generate(args.seed, stream["n"], stream["max_degree"],
                             stream["count"])
    job = make_job(wl, exprs, args.seed)
    info = machine_info()
    info.update(workload=args.workload, seed=args.seed,
                stream_seed=args.seed, seconds=args.seconds, trace=args.trace)
    try:
        if args.trace:
            base = run_worker(dict(job, probe=False), deadline)
            traced = run_worker(dict(job, trace=True, probe=False),
                                deadline)
            sessions, fillers = [base, traced], []
            metrics = per_layer(base, traced)
            info["replay_seed"] = args.seed
            info["trace_overhead_ratio"] = \
                metrics["trace.overhead_ratio"]["value"]
        else:
            sessions, fillers = measure(wl, job, args.seconds, deadline)
            metrics, detail = end_to_end(wl, sessions, fillers)
            info.update(detail)
            info["trace_overhead_ratio"] = "reported by --trace 1 runs"
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    check = Tally(args.workload, wl, job["checks"], job["exprs"])
    for s in sessions + fillers:
        check.session(s)
    info["fail_ratio"] = check.failed / check.attempted
    info["problems"] = check.problems
    info["sessions"] = [session_summary(s) for s in sessions + fillers]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(run())
