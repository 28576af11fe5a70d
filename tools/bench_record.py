"""Write BENCH_<label>.json from saved perfbench runs of two commits.

Each input file is the standard output of one
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` run;
its last two lines are the info line and the result line.  Give the files in
the order the runs were made: within each (workload, seed) pair, the earlier
file is recorded as having run first.

    python3 tools/bench_record.py --label qq_fastpaths --change "what changed" \\
        --parent-sha SHA --change-sha SHA [--extra notes.json] RUN.txt ...

The record holds the machine, both shas, the command, every run's metrics,
and per workload and end-to-end metric each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``) and the number of pairs
the change won, in the direction ``BENCHMARK.json`` gives; ties count for
neither side.  ``--extra`` names a JSON object whose keys are added to the
record, for measurements perfbench does not make.  Runs made on different
machines or settings, a run of neither sha, and a seed without exactly one
run per side are refused.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("affinity", "cpu_model", "nproc", "python")


class RecordError(ValueError):
    pass


def read_run(path):
    """(info, result) from the last two lines of one saved run."""
    lines = [ln for ln in pathlib.Path(path).read_text().splitlines()
             if ln.strip()]
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError):
        info = result = None
    if not (isinstance(info, dict) and isinstance(result, dict)
            and "metrics" in result):
        raise RecordError("%s: no perfbench info and result lines" % path)
    if info.get("trace") != 0:
        raise RecordError("%s: not a --trace 0 run" % path)
    return info, result


def _same(runs, what, key):
    values = {json.dumps(key(info), sort_keys=True) for info, _ in runs}
    if len(values) != 1:
        raise RecordError("runs differ in %s: %s" % (what, sorted(values)))
    return key(runs[0][0])


def _summary(values):
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return statistics.median(values), [quartiles[0], quartiles[2]]


def _medians(pairs, directions):
    out = {}
    for name, better in directions.items():
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1 if better == "lower" else -1
        pm, pq = _summary(parent)
        cm, cq = _summary(change)
        out[name] = {
            "change_better_pairs": sum(1 for p, c in zip(parent, change)
                                       if sign * (c - p) < 0),
            "change_median": cm, "change_quartiles": cq, "pairs": len(pairs),
            "parent_median": pm, "parent_quartiles": pq,
            "relative_change": (cm - pm) / pm}
    return out


def record(paths, label, change, parent_sha, change_sha, extra=None):
    runs = [read_run(p) for p in paths]
    if not runs:
        raise RecordError("no runs given")
    machine = _same(runs, "machine",
                    lambda i: {k: i[k] for k in MACHINE_KEYS})
    seconds = _same(runs, "--seconds", lambda i: i["seconds"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {parent_sha: "parent", change_sha: "change"}

    workloads, seen = {}, {}
    for path, (info, result) in zip(paths, runs):
        side = sides.get(info["git_sha"])
        if side is None:
            raise RecordError("%s: sha %s is neither side's"
                              % (path, info["git_sha"]))
        key = (info["workload"], info["seed"])
        slot = seen.setdefault(key, {})
        if side in slot:
            raise RecordError("%s: second %s run of %s seed %d"
                              % (path, side, *key))
        run = {"attempted": result["attempted"], "correct": result["correct"],
               "failed": result["failed"],
               "eval_samples": info["eval_samples"],
               "eval_tail_percentile": info["eval_tail_percentile"],
               "loadavg": info["loadavg"],
               "metrics": {k: v["value"] for k, v in result["metrics"].items()},
               "ran": "second" if slot else "first",
               "seed": info["seed"], "side": side}
        slot[side] = run
        workloads.setdefault(info["workload"], {"runs": []})["runs"].append(run)
    for (workload, seed), slot in seen.items():
        if len(slot) != 2:
            raise RecordError("%s seed %d has no %s run" % (
                workload, seed, "change" if "parent" in slot else "parent"))
    for workload, entry in workloads.items():
        pairs = [(slot["parent"], slot["change"])
                 for (w, _), slot in seen.items() if w == workload]
        entry["medians"] = _medians(pairs, directions)

    out = {"change": change,
           "command": "python3 perfbench/run.py --workload W --seed S "
                      "--seconds %g --trace 0" % seconds,
           "label": label, "machine": machine,
           "protocol": "one parent and one change run per workload and seed, "
                       "one after the other; 'ran' says which came first",
           "shas": {"change": change_sha, "parent": parent_sha},
           "workloads": dict(sorted(workloads.items()))}
    for key, value in (extra or {}).items():
        if key in out:
            raise RecordError("--extra would replace %r" % key)
        out[key] = value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--change", required=True,
                        help="one line saying what the change did")
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--extra", help="JSON object of further keys")
    parser.add_argument("runs", nargs="+", help="saved perfbench outputs")
    args = parser.parse_args(argv)
    try:
        extra = (json.loads(pathlib.Path(args.extra).read_text())
                 if args.extra else None)
        if extra is not None and not isinstance(extra, dict):
            raise RecordError("--extra must name a JSON object")
        out = record(args.runs, args.label, args.change, args.parent_sha,
                     args.change_sha, extra)
    except (OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except KeyError as err:
        print("error: a run lacks the field %s" % err, file=sys.stderr)
        return 2
    path = pathlib.Path("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
