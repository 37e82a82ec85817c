"""gpk benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gpk checkout; gpk is imported from ``src/``.  The
workload's inputs come from the seed alone.  Calls run back to back in this
process (a closed loop, one client, ``--jobs 1``) until their summed wall
time reaches ``--seconds``; every call's outputs are checked outside the
timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics: per-span calls and self time per frame and median call
time, the exact counts of counts.py, and the tracing overhead.

The last line of stdout is the result as one JSON object; the lines before
it name each metric with its unit and sample count.  The full record,
environment included, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def nearest_rank(sorted_values, pct):
    """Value at percentile pct (nearest rank) and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(math.ceil(pct / 100 * n), 1)
    return sorted_values[rank - 1], n - rank


def cold_start(workload, env) -> float:
    """Wall time of a fresh interpreter producing the first frame's result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "cold.py"),
           json.dumps(workload.cold())]
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=120)
    return time.perf_counter() - start


def run_calls(workload, seconds, tracer):
    """Warm-up call, then calls until their summed time reaches `seconds`.

    With a tracer, every second timed call is traced.  Returns one
    (seconds, traced, completed, error) per call, warm-up first: `completed`
    is whether gpk finished the call, `error` why the call failed, if it did.
    """
    calls, timed, i = [], 0.0, 0
    while i == 0 or timed < seconds:
        traced = tracer is not None and i % 2 == 0 and i > 0
        if traced:
            tracer.start(i)
        start = time.perf_counter()
        error = None
        try:
            stdout = workload.call(i)
        except Exception as exc:  # a failed call is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            tracer.stop()
        completed = error is None
        if completed:
            try:
                workload.check(i, stdout)
            except Exception as exc:
                error = exc
        if error is not None:
            print(f"call {i} failed: {error!r}", file=sys.stderr)
            if not any(c[3] for c in calls):  # full traceback once per run
                traceback.print_exception(error, file=sys.stderr)
        calls.append((elapsed, traced, completed, error))
        if i > 0:
            timed += elapsed
        i += 1
    return calls


def fps(workload, calls):
    """Frames gpk completed per second of timed wall time."""
    done = sum(workload.frames_per_call for c in calls if c[2])
    return done / sum(c[0] for c in calls)


def end_to_end(workload, calls, setup_samples):
    timed = calls[1:]
    ms = sorted(c[0] * 1e3 for c in timed)
    tail, beyond = nearest_rank(ms, workload.tail_pct)
    failed = sum(c[3] is not None for c in calls)
    values = {
        "throughput_fps": fps(workload, timed),
        "call_ms_p50": statistics.median(ms),
        "call_ms_tail": tail,
        "mb_io_per_frame": workload.io_bytes() / workload.frames_per_call / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup_samples),
    }
    notes = {
        "throughput_fps": f"n={len(timed)} calls x {workload.frames_per_call} frames",
        "call_ms_p50": f"n={len(ms)}",
        "call_ms_tail": f"p{workload.tail_pct:g}, n={len(ms)}, {beyond} beyond"
                        + ("" if beyond >= 10 else " (fewer than 10)"),
        "mb_io_per_frame": "exact; " + ("read" if workload.name == "maps-readback"
                                        else "written, manifest.json excluded"),
        "peak_rss_mb": "n=1, ru_maxrss of this process",
        "setup_s": f"median of n={len(setup_samples)} fresh interpreters: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples),
        "failed_frac": f"{failed}/{len(calls)} calls, warm-up included",
    }
    extra = {"failed_frac": failed / len(calls), "call_ms_samples": ms}
    return values, notes, extra


def per_layer(workload, calls, tracer):
    traced = [c for c in calls[1:] if c[1]]
    untraced = [c for c in calls[1:] if not c[1]]
    frames = sum(workload.frames_per_call for c in traced if c[2])
    values = tracer.summary(frames)
    notes = dict.fromkeys(values, f"{len(traced)} traced calls, {frames} frames")
    counted = workload.counts()
    values.update(counted)
    notes.update(dict.fromkeys(counted, "exact count, untimed pass"))
    traced_fps, untraced_fps = fps(workload, traced), fps(workload, untraced)
    values["trace.fps_delta"] = traced_fps - untraced_fps
    notes["trace.fps_delta"] = (f"traced {traced_fps:.4g} fps (n={len(traced)}) - "
                                f"untraced {untraced_fps:.4g} fps (n={len(untraced)})")
    return values, notes


def environment(seed, out_dir) -> dict:
    import numpy
    import scipy

    cpu_model, caches = platform.processor(), {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind = (d / "level").read_text().strip(), (d / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (d / "size").read_text().strip()
    fs, best = "unknown", ""
    target = os.path.realpath(out_dir)
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                fs, best = fstype, mount
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "output_fs": f"{fs} on {best or '?'}",
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # checkouts without .git are identified by src_sha256
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "gpk" / "__init__.py").is_file():
        print(f"error: no gpk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = ROOT / ".perfbench_out"
    work = out / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "GPK_LOG": "warning",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    workload = workloads.WORKLOADS[args.workload](work, args.seed, env)
    try:
        workload.setup()
        record = {"workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds,
                  "environment": environment(args.seed, work)}
        if args.trace:
            span_names = sorted({m["name"].rsplit(".", 1)[0] for m in wanted
                                 if m["name"].endswith(".calls")})
            tracer = Tracer(span_names)
            calls = run_calls(workload, args.seconds, tracer)
            values, notes = per_layer(workload, calls, tracer)
            if tracer.missing:
                print(f"warning: no such gpk functions: {tracer.missing}",
                      file=sys.stderr)
            (out / "spans").mkdir(exist_ok=True)
            tracer.write(out / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            setup = [cold_start(workload, env) for _ in range(SETUP_PROBES)]
            calls = run_calls(workload, args.seconds, None)
            values, notes, extra = end_to_end(workload, calls, setup)
            record.update(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(c[3] is not None for c in calls)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:<17} {m['name']:<40} {values[m['name']]:>14.6g} "
              f"{m['unit']:<8} {notes.get(m['name'], '')}")
    if not args.trace:
        print(f"{args.workload:<17} {'failed_frac':<40} {record['failed_frac']:>14.6g} "
              f"{'1':<8} {notes['failed_frac']}")
    else:
        ranked = sorted((v, k[:-7]) for k, v in values.items() if k.endswith(".self_s"))
        total = sum(v for v, _ in ranked) or 1.0
        print("self time ranking: " + ", ".join(
            f"{name} {v / total:.0%}" for v, name in reversed(ranked) if v > 0))
    for defect, files in workload.known_defects.items():
        print(f"{args.workload:<17} known defect {defect}: {len(files)} files "
              f"{' '.join(files)}")
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    record.update(result=result, notes=notes, known_defects=workload.known_defects)
    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
