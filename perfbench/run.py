#!/usr/bin/env python3
"""negtext benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner builds nothing: it puts
`src` on PYTHONPATH, fixes the BLAS thread count, starts the workload
process (work.py) and waits for it. It prints every metric by name with
its unit and the output checks that failed, then one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-stream", "gen-latency")
E2E_UNITS = {
    "setup_s": "s",
    "images_per_s": "images/s",
    "batch_s_p50": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "gen_calls_per_batch": "calls",
    "auroc": "ratio",
}
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the program's temporary files (save_checkpoint makes some) stay in the checkout
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    return env


def work_process(args, env: dict, work: Path) -> dict:
    """Run the workload process to completion and read its result."""
    argv = [
        sys.executable, str(HERE / "work.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--dir", str(work),
    ]
    if args.trace:
        out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}"
        argv += ["--trace-out", str(out)]
    err_path = work / "work.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=err, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"workload process killed after {CHILD_TIMEOUT_S} s") from None
    result_path = work / "result.json"
    if code != 0 or not result_path.exists():
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"workload process exited {code}: {stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "negtext" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'negtext'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env(work)
        result = work_process(args, env, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for name, value in sorted(result.get("info", {}).items()):
        print(f"  {name:<30} {json.dumps(value)}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_frac':<30} {failed_frac:>16.6g} fraction "
          f"({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(max(1, result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
