"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark repeats whole rounds of the workload, each in a fresh
interpreter (perfbench/child.py), for about S seconds.  Around each round it
times a fixed computation (calibrate.py) that uses no sgfem code.  The
machine's speed drifts up to threefold over minutes (README.md), so run and
CPU time are reported as multiples of that time (run_cal, cpu_cal), medians
over the rounds; setup_s is the fastest round's, and peak_rss_mb and
cum_dofs are medians.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 the rounds alternate untraced and traced, and
it reports the per-layer metrics of the fastest traced round plus the
tracing overhead.
The workloads are fixed command lines (see workloads.py): --seed changes
nothing, as the program has no random input.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 150


def _descendants(pid):
    """Process ids below pid, from /proc."""
    found, todo = [], [pid]
    while todo:
        for path in glob.glob(f"/proc/{todo.pop()}/task/*/children"):
            try:
                with open(path, encoding="ascii") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def _hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _watch_workers(proc, peaks, stop):
    """Record the peak RSS of every process the round starts below it."""
    while not stop.wait(0.2):
        for pid in _descendants(proc.pid):
            hwm = _hwm_kb(pid)
            if hwm is not None:
                peaks[pid] = max(peaks.get(pid, 0), hwm)


def run_round(name, outdir, traced):
    """One fresh-process round; returns the child's result dict or None."""
    outdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    peaks, stop = {}, threading.Event()
    cal_before = calibrate.seconds()
    with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), name, str(outdir),
             "1" if traced else "0", repr(spawned)],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        watcher = threading.Thread(target=_watch_workers, args=(proc, peaks, stop))
        watcher.start()
        try:
            proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            stop.set()
            watcher.join()
    try:
        with open(outdir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        sys.stderr.write((outdir / "stderr.txt").read_text(errors="replace")[-2000:])
        return None
    result["peak_rss_mb"] = (result["maxrss_kb"] + sum(peaks.values())) / 1024.0
    # the machine's speed around the round, from a computation of fixed size
    result["cal_s"] = 0.5 * (cal_before + calibrate.seconds())
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgfem" / "cli.py").is_file():
        print(f"benchmark: no sgfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    name = args.workload
    base = HERE / "out" / name
    shutil.rmtree(base, ignore_errors=True)

    start = time.monotonic()
    results, lengths, attempted, failed, bad = [], [], 0, 0, []
    # whole rounds until the next one would overrun; a traced run needs at
    # least one untraced and one traced round
    while (len(results) < 1 + args.trace
           or time.monotonic() - start + statistics.median(lengths) <= args.seconds):
        t0 = time.monotonic()
        traced = bool(args.trace and len(results) % 2 == 1)
        res = run_round(name, base / f"round{len(results)}", traced)
        if res is None:
            print("benchmark: a round ended without a result", file=sys.stderr)
            return 3
        res["traced"] = traced
        results.append(res)
        lengths.append(time.monotonic() - t0)
        attempted += 1
        if res["error"] is not None:
            failed += 1
            print(f"benchmark: round failed: {res['error']}", file=sys.stderr)
        else:
            bad += res["bad"]

    good = [r for r in results if r["error"] is None]
    for msg in bad:
        print(f"benchmark: check failed: {msg}", file=sys.stderr)

    plain = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        print("benchmark: every round failed", file=sys.stderr)
        return 3

    if args.trace:
        fastest = min(traced_runs, key=lambda r: r["run_s"])
        values = dict(fastest["layers"])
        values["trace.overhead_s"] = fastest["run_s"] - min(r["run_s"] for r in plain)
    else:
        values = {
            "run_cal": statistics.median(r["run_s"] / r["cal_s"] for r in plain),
            "cpu_cal": statistics.median(r["cpu_s"] / r["cal_s"] for r in plain),
            "setup_s": min(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "cum_dofs": statistics.median(r["cum_dofs"] for r in plain),
        }
        print("benchmark: median round run_s %.3f s, cal_s %.3f s over %d rounds"
              % (statistics.median(r["run_s"] for r in plain),
                 statistics.median(r["cal_s"] for r in plain), len(plain)),
              file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"benchmark: metric {m['name']} was not measured", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
