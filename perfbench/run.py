"""uwacap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli_figures --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is taken from ``src/``. With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` the
per-layer metrics, from passes traced by spans around the package's public
functions. Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. A copy of
the result, with the run environment (and the spans, when traced), is
written under ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5      # fresh interpreters timed per run; setup_s is their median
IMPORT_PROBES = 3     # -X importtime probes per traced run
TRACED_PASSES = 2     # counts must repeat exactly between these

PHASES = {"closed_form": "closed_form_points_per_s", "ergodic": "ergodic_points_per_s", "draws": "draws_per_s"}


def metric_units():
    """(end-to-end, per-layer) metric names with their units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": workloads.nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(),
    }


def probe(workload, seed, importtime=False):
    """Run the set-up probe in a fresh interpreter: (seconds, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "child.py"), "setup", workload, str(seed), ROOT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile).

    Below 21 samples that percentile would not exceed the median, so the
    maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def phase_rates(passes):
    out = dict.fromkeys(PHASES.values(), 0.0)
    for phase, metric in PHASES.items():
        points = sum(p.phases.get(phase, (0, 0))[0] for p in passes)
        seconds = sum(p.phases.get(phase, (0, 0))[1] for p in passes)
        out[metric] = points / seconds if seconds else 0.0
    return out


def untraced_run(workload, args):
    setup = [probe(args.workload, args.seed)[0] for _ in range(SETUP_PROBES)]
    if workload.in_process:
        workload.prepare()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(workload.run_pass().compact())
        now = time.perf_counter()
        # start another pass only if it should end within --seconds
        if (now - start) + (now - began) > args.seconds:
            break
    latencies = [x for p in passes for x in p.latencies]
    # the tail is taken per pass, whose operation list is fixed, so its
    # percentile does not depend on how many passes fit in --seconds
    tails = [tail(p.latencies) for p in passes]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "rows_per_s": sum(p.rows for p in passes) / sum(p.wall for p in passes),
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_tail_s": statistics.median(t[0] for t in tails),
        "peak_rss_mb": rss / 1024.0,
    }
    notes = {
        "passes": len(passes),
        "operations": len(latencies),
        "operations_per_pass": len(passes[0].latencies),
        "tail_percentile": tails[0][1],
        "setup_probes": setup,
        "pass_wall_s": [p.wall for p in passes],
        **phase_rates(passes),
    }
    return metrics, passes, notes


def traced_run(workload, args):
    imports = [spans.import_times(probe(args.workload, args.seed, importtime=True)[1])
               for _ in range(IMPORT_PROBES)]
    if workload.in_process:
        workload.prepare()
    untraced = workload.run_pass().compact()
    traced, layers = [], []
    for _ in range(TRACED_PASSES):
        if workload.in_process:
            recorder = spans.Recorder()
            workload.recorder = recorder
            spans.install(recorder)
            try:
                result = workload.run_pass(traced=True)
            finally:
                spans.uninstall()
            result.spans, result.attrs = recorder.spans, recorder.attrs
        else:
            result = workload.run_pass(traced=True)
        traced.append(result.compact())
        layer = spans.layer_metrics(result.spans, result.attrs)
        layer["cli.rows"] = 0 if workload.in_process else result.rows
        layers.append(layer)
    counts = {name for name, unit in metric_units()[1].items() if unit == "count"}
    metrics, mismatched = spans.median_metrics(layers, counts)
    for name in imports[0]:
        metrics[name] = statistics.median(i[name] for i in imports)
    metrics["trace.overhead_s"] = statistics.median(t.wall for t in traced) - untraced.wall
    metrics.update(phase_rates([untraced]))
    notes = {
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": [t.wall for t in traced],
        "count_mismatch": mismatched,
        "spans": {"spans": traced[0].spans, "attrs": traced[0].attrs},
    }
    return metrics, [untraced] + traced, notes


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "uwacap", "cli.py")):
        sys.stderr.write("perfbench: %s has no src/uwacap; run from a checkout of the repository\n" % ROOT)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    missed = checks.selftest() + ([] if spans.call_key_selftest() else ["output_density call key"])
    env = environment(args)
    if args.trace:
        metrics, passes, notes = traced_run(workload, args)
    else:
        metrics, passes, notes = untraced_run(workload, args)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    mismatched = notes.get("count_mismatch", [])
    correct = failed == 0 and not missed and not mismatched

    print("# env %s" % json.dumps(env))
    print("# %s seed=%d trace=%d: %d passes, %d operations, %d failed, fail_ratio=%g"
          % (args.workload, args.seed, args.trace, len(passes), attempted, failed, failed / attempted))
    print("# selftest: %s" % ("every wrong value counted as a failure" if not missed
                              else "NOT counted: " + ", ".join(missed)))
    rayleigh_err = max(p.rayleigh_err for p in passes)
    if rayleigh_err:
        print("# ergodic vs Rayleigh closed form: largest relative error %.3g (allowed %.3g)"
              % (rayleigh_err, checks.RAYLEIGH_RTOL))
    for kind, errors in failures[:10]:
        print("# FAILED %s: %s" % (kind, "; ".join(errors[:3])))
    for line in mismatched:
        print("# COUNT MISMATCH between traced passes: %s" % line)
    if not args.trace:
        print("# %d latency samples, %d per pass; op_latency_tail_s is the median over passes of each pass's p%.4g;"
              " setup_s is the median of %d fresh interpreters"
              % (notes["operations"], notes["operations_per_pass"], notes["tail_percentile"], SETUP_PROBES))
        for name in PHASES.values():
            if notes[name]:
                print("# %-45s %.6g 1/s" % (name, notes[name]))
    units = metric_units()[args.trace]
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print("# %-45s %s %s" % (name, value if units[name] == "count" else "%.6g" % value, units[name]))

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"env": env, "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
              "notes": notes}
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, separators=(",", ":"))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
