"""Self-tests of the benchmark, not of qdc.

Run from the repository root (takes about a minute per traced workload):

    python3 perfbench/selftest.py [WORKLOAD ...]

- the oracles reject wrong answers (sympy scalar check, verdict table);
- a wrong expected verdict makes a whole run fail;
- each workload reports eval_p99_ms at one fixed percentile, however many
  filler sessions a run adds;
- the speed probe turns wall time into reference time: twice as slow
  probes halve a stretch's reference time, and probe time counts as none;
- two traced runs with the same seed report identical counts, for each
  named workload (default: eval-sl2-stream);
- BENCHMARK.json, when present, lists exactly the metrics the runs print.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle   # noqa: E402
import run      # noqa: E402
import spans    # noqa: E402
import worker   # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print("ok  ", what)


def test_oracles():
    scalars = oracle.ScalarOracle()
    check(scalars.agrees("(q^(1/2) + q^(-1/2))^2", "q + 2 + q^-1"),
          "sympy accepts an equal rendering")
    check(not scalars.agrees("(q^(1/2) + q^(-1/2))^2", "q + 2 + q^-2"),
          "sympy rejects an unequal rendering")
    table = oracle.EXPECTED["check-sl2-d3"]
    check(oracle.verdict_failures(table, table) == 0,
          "the expected table matches itself")
    flipped = [list(r) for r in table]
    flipped[0][3] = "fail"
    check(oracle.verdict_failures(table, flipped) == 1,
          "one flipped verdict counts as one failure")
    check(oracle.verdict_failures(table, table[:-2]) == 2,
          "missing rows count as failures")
    check(oracle.wedge_dims_ok(2, [1, 4, 6, 4, 1, 0])
          and not oracle.wedge_dims_ok(2, [1, 4, 5, 4, 1, 0]),
          "wedge dimensions are checked against C(M, k)")


def test_wrong_verdict_fails_run():
    name = "eval-sl2-stream"
    saved = oracle.EXPECTED[name]
    wrong = [tuple(r) for r in saved]
    wrong[-1] = wrong[-1][:3] + ("fail",)
    oracle.EXPECTED[name] = wrong
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.run(["--workload", name, "--seed", "5",
                            "--seconds", "1"])
    finally:
        oracle.EXPECTED[name] = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code != 0 and result["correct"] is False and result["failed"] >= 1,
          "a wrong expected verdict makes the run fail")


def test_fixed_percentile():
    # The highest percentile with ten samples beyond it: p99 from 1,000
    # expressions on.
    want = {"check-sl2-d3": 99, "sl3-d1": 99, "eval-sl2-stream": 99}
    for name, wl in run.WORKLOADS.items():
        session = {"setup_s": 1.0, "verdict_s": 1.0, "stream_s": 1.0,
                   "rss_mb": 1.0,
                   "latencies": [0.001] * wl["stream"]["count"]}
        filler = {"setup_s": 1.0, "verdict_s": 1.0}
        ps = {run.end_to_end(wl, [session] * wl["sessions"],
                             [filler] * k)[1]["eval_tail_percentile"]
              for k in (0, 1, 30)}
        check(ps == {want[name]}, "%s always reports eval_p99_ms as p%d of "
              "%d expressions" % (name, want[name], run.eval_samples(wl)))
        try:
            run.end_to_end(wl, [session] * (wl["sessions"] + 1), [])
            raised = False
        except run.BenchError:
            raised = True
        check(raised, "%s: a run with more eval samples than the workload "
              "has is refused" % name)


def test_speed_probe():
    ref = worker.SpeedProbe.REF_S
    probe = worker.SpeedProbe()
    # Probes of 1 ref at t = 0, 10, 20 and of 2 refs at t = 30, 40.
    probe.starts = [0.0, 10.0, 20.0, 30.0, 40.0]
    probe.ends = [s + ref * (1 if s < 30 else 2) for s in probe.starts]
    probe.fit()

    def close(a, b):
        return abs(a - b) <= 1e-9 * abs(b)

    check(close(probe.scaled(1.0, 9.0), 8.0),
          "at probe speed a stretch keeps its wall time")
    check(close(probe.scaled(31.0, 39.0), 4.0),
          "where probes take twice as long, a stretch counts half")
    check(close(probe.scaled(21.0, 29.0), 8.0 * 2 / 3),
          "between a fast and a slow probe, the mean of the two applies")
    check(close(probe.scaled(5.0, 15.0), 10.0 - ref),
          "a probe inside an interval counts as no time")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def test_counts_repeat(workload):
    first, second = traced(workload, 11), traced(workload, 11)
    counts = [n for n, unit, _ in spans.METRICS
              if unit in ("count", "ratio") and n != "trace.overhead_ratio"]
    differ = [n for n in counts
              if first[n]["value"] != second[n]["value"]]
    check(not differ, "%s: traced counts and count ratios repeat exactly "
          "(%d)%s" % (workload, len(counts),
                      " differ: %s" % differ if differ else ""))
    return first


def test_manifest(layer_metrics):
    manifest = HERE.parent / "BENCHMARK.json"
    if not manifest.exists():
        print("skip", "no BENCHMARK.json")
        return
    spec = json.loads(manifest.read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END),
          "BENCHMARK.json lists the end-to-end metrics with their units")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(spans.METRICS)
          and set(layer_metrics) == {n for n, _, _ in spans.METRICS},
          "BENCHMARK.json lists the per-layer metrics with their units")


def main(argv):
    workloads = argv or ["eval-sl2-stream"]
    test_oracles()
    test_fixed_percentile()
    test_speed_probe()
    test_wrong_verdict_fails_run()
    layer_metrics = {}
    for workload in workloads:
        layer_metrics = test_counts_repeat(workload)
    test_manifest(layer_metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
