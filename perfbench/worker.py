"""One benchmark session in a fresh process.

Reads a JSON job on stdin and prints one JSON result line.  ``run.py``
starts it; the job names the checkout root, the config, the suites and
the expression texts.

A session times, from before ``import qdc``:

- set-up: import and ``assemble`` for the job's config;
- the phases in job order: "verdict" (every suite through
  ``qdc.cli.run_suite``) and "stream" (each expression through ``parse``,
  ``evaluate_ast`` and ``render_value``, one at a time);
- peak RSS at the end of the timed phases.

Times are in reference seconds (see ``SpeedProbe``): wall time scaled by
the machine's speed at that moment, so that the host's swings in CPU speed
do not show as changes of qdc.  The wall times are returned too.

After the timed part it re-parses every rendered value and checks that it
evaluates to the same rendering.  With ``"trace": true`` the session runs
under ``spans.Tracer``, without the probe, and returns the per-layer
metrics.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

perf = time.perf_counter

QDC_MODULES = ("scalars", "linalg", "algebra", "functionals", "forms",
               "calculus", "bicomplex", "suites", "cli")


def _probe_work():
    """A fixed piece of Fraction arithmetic, the kind of work that takes
    most of qdc's time; 0.5–1 ms on a 2-vCPU Xeon VM."""
    for _ in range(6):
        s = Fraction(1)
        for i in range(1, 21):
            s = s * Fraction(i + 1, i + 3) + Fraction(1, i)
    return s


class SpeedProbe:
    """Tracks the machine's speed inside the session.

    On a shared host the CPU runs up to 1.7 times slower or faster, in
    stretches from a fraction of a second to minutes, so one wall time says
    as much about the neighbours as about qdc.  While installed, a SIGALRM
    handler times ``_probe_work`` every ``INTERVAL_S``.  ``scaled(a, b)``
    turns the wall interval [a, b] into reference seconds: the time the
    interval's work would take on a machine where one probe takes
    ``REF_S``.  Each stretch between two probes is scaled by the mean time
    of those two probes; the probes' own time is left out.  The probe
    allocates no qdc objects and runs with the garbage collector off, so
    what qdc does cannot change what it measures.
    """

    INTERVAL_S = 0.04
    REF_S = 1e-3

    def __init__(self):
        self.starts, self.ends = [], []

    def _probe(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        _probe_work()
        t1 = perf()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def install(self):
        signal.signal(signal.SIGALRM, self._probe)
        _probe_work()                      # warm-up, not timed
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        self.fit()

    def fit(self):
        """Reference time at each probe from the recorded probes."""
        d = self.durations = [e - s for s, e in zip(self.starts,
                                                    self.ends)]
        k = len(d)
        # Gap g runs from the end of probe g-1 to the start of probe g.
        self.rates = [2 * self.REF_S / (d[max(g - 1, 0)] + d[min(g, k - 1)])
                      for g in range(k + 1)]
        self.at_start = [0.0]
        for g in range(1, k):
            self.at_start.append(self.at_start[-1] + self.rates[g] * (
                self.starts[g] - self.ends[g - 1]))

    def _at(self, t):
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            return -self.rates[0] * (self.starts[0] - t)
        if t < self.ends[i - 1]:
            return self.at_start[i - 1]
        return self.at_start[i - 1] + self.rates[i] * (t - self.ends[i - 1])

    def scaled(self, a, b):
        return self._at(b) - self._at(a)

    def summary(self):
        d = sorted(self.durations)
        return {"probes": len(d), "probe_min_ms": d[0] * 1e3,
                "probe_p50_ms": d[len(d) // 2] * 1e3,
                "probe_max_ms": d[-1] * 1e3}


def _import_qdc(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import importlib
    qdc = importlib.import_module("qdc")
    if not os.path.abspath(qdc.__file__).startswith(os.path.abspath(src)):
        raise RuntimeError("qdc imported from %s, not from %s"
                           % (qdc.__file__, src))
    return {name: importlib.import_module("qdc." + name)
            for name in QDC_MODULES}


def _config_text(job, root):
    if job["rmatrix"] is None:
        from importlib import resources
        return (resources.files("qdc") / "data" / "slq2.rmatrix").read_text()
    with open(os.path.join(root, job["rmatrix"]), encoding="utf-8") as fh:
        return fh.read()


def _timed(probe, marks, spans):
    """Interval times in reference seconds (wall seconds without a probe),
    plus the wall times of the named intervals."""
    scale = probe.scaled if probe is not None else (lambda a, b: b - a)
    out = {}
    for name, (a, b) in marks.items():
        out[name + "_s"] = scale(a, b)
        out["wall_" + name + "_s"] = b - a
    out["latencies"] = [scale(a, b) for a, b in spans]
    if probe is not None:
        out["speed"] = probe.summary()
    return out


def run_session(job):
    probe = SpeedProbe() if job["probe"] else None
    if probe is not None:
        probe.install()
    start = perf()
    root = job["root"]
    mods = _import_qdc(root)
    cli = mods["cli"]
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer(mods, sample_seed=job["seed"])
        tracer.install()
    calc = mods["calculus"].assemble(
        _config_text(job, root), grade_cap=job["cap"],
        degree_bound=job["degree"], f00_choice=job["f00"])
    marks = {"setup": (start, perf())}
    out = {"n": calc.qg.N, "wedge_dims": calc.space.table.dimensions()}
    if job["mode"] == "setup":
        if probe is not None:
            probe.uninstall()
        out.update(_timed(probe, marks, []))
        return out

    rows, spans_, renders, errors = [], [], [], {}
    for phase in job["phases"]:
        t0, c0 = perf(), time.process_time()
        if phase == "verdict":
            for name in job["suites"]:
                if tracer is None:
                    reports = cli.run_suite(calc, name, job["degree"])
                else:
                    reports = tracer.call("suites." + name, "suites",
                                          cli.run_suite, calc, name,
                                          job["degree"])
                rows.extend((r.suite, e.law, e.gating, e.status)
                            for r in reports for e in r.entries)
            marks["verdict"] = (t0, perf())
            out["verdict_cpu_s"] = time.process_time() - c0
        elif phase == "stream":
            for i, text in enumerate(job["exprs"]):
                t1 = perf()
                try:
                    value = cli.evaluate_ast(cli.parse(text), calc)
                    rendered = cli.render_value(value)
                except Exception as err:   # a raised expression is a failure
                    rendered = None
                    errors[i] = "%s: %s" % (type(err).__name__, err)
                spans_.append((t1, perf()))
                renders.append(rendered)
            marks["stream"] = (t0, perf())
            out["stream_cpu_s"] = time.process_time() - c0
        else:
            raise ValueError("unknown phase %r" % phase)
    marks["session"] = (start, perf())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe is not None:
        probe.uninstall()
    out.update(_timed(probe, marks, spans_))
    out.update(rows=rows, renders=renders, errors=errors)

    if tracer is not None:
        tracer.uninstall()
        scalar_cls = mods["scalars"].Scalar
        replay = {"mul": spans.replay(tracer.mul_sample.items,
                                      scalar_cls.__mul__),
                  "add": spans.replay(tracer.add_sample.items,
                                      scalar_cls.__add__)}
        gating = sum(1 for r in rows if r[2])
        out["layers"] = tracer.metrics(calc, gating, replay)

    mismatches = []
    for i, check in enumerate(job["checks"]):
        if check != "value" or renders[i] is None:
            continue
        try:
            again = cli.render_value(cli.evaluate_ast(cli.parse(renders[i]),
                                                      calc))
        except Exception as err:           # the rendering did not re-parse
            again = "%s: %s" % (type(err).__name__, err)
        if again != renders[i]:
            mismatches.append(i)
    out["reparse_mismatches"] = mismatches
    return out


def main():
    job = json.load(sys.stdin)
    json.dump(run_session(job), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
