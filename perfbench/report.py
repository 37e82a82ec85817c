"""Run every workload untraced and traced; print each metric with its unit
and sample count, then the traced self-time ranking.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a gpk checkout.  Each run is one ``run.py``
invocation; the full records stay in ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()
    status, env_shown = 0, False
    for name in args.workload or names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                 name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            record = json.loads((ROOT / ".perfbench_out" / "results" /
                                 f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            if not env_shown:
                print("environment:", json.dumps(record["environment"]))
                env_shown = True
            result = record["result"]
            print(f"\n== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            rows = list(result["metrics"].items())
            if not trace:
                rows.append(("failed_frac", {"value": record["failed_frac"], "unit": "1"}))
            for metric, m in rows:
                if trace and m["value"] == 0:
                    continue  # layers this workload does not run
                print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']:<8} "
                      f"{record['notes'].get(metric, '')}")
            for defect, files in record.get("known_defects", {}).items():
                print(f"  known defect {defect}: {len(files)} files")
            if trace:
                print("  " + next(line for line in proc.stdout.splitlines()
                                  if line.startswith("self time ranking")))
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
