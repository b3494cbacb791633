"""restapprox benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload norms-large --seed 1 --seconds 25 --trace 0

The inputs are generated from ``--seed`` into ``bench/.work/``.  Set-up is
timed in several fresh interpreters, each against a reference interpreter
started just before it (the median is reported); the workload runs in one of
them for ``--seconds`` seconds.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters timed for set-up besides the measuring one, after one
# untimed warm-up that fills the bytecode and file caches.
SETUP_SAMPLES = {"full": 4, "smoke": 1}
# The reference for set-up: a fresh interpreter that imports these standard
# library modules, pure-Python and compiled ones, as set-up imports numpy and
# scipy.  The machine's speed drifts by tens of percent over minutes, and this
# import slows with set-up, so set-up divided by it is steady from run to run.
REFERENCE_IMPORTS = (
    "asyncio, bz2, concurrent.futures, csv, ctypes, dataclasses, decimal, difflib, "
    "email.mime.multipart, fractions, http.client, inspect, json, logging, lzma, "
    "multiprocessing, pickle, pydoc, sqlite3, ssl, statistics, tarfile, typing, "
    "unittest, urllib.request, xml.dom.minidom, xml.etree.ElementTree, zipfile"
)
# The reference import's time on a 2-core x86-64 host with Python 3.11.
# Set-up times are reported in seconds of that host: the set-up to reference
# ratio times this constant.
REFERENCE_S = 0.2
# Every run must end within 180 s.
DEADLINE_S = 170.0
# numpy's matmul in the exact enumerations must not fan out over the cores.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args: list[str], result: Path, deadline: float) -> tuple[float, dict]:
    """Start the worker in a fresh interpreter; return its start time on this
    process's monotonic clock and its result."""
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--result", str(result), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(result.read_text())


def reference_import(deadline: float) -> float:
    """Seconds from spawning the reference interpreter to its imports done."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", f"import time, {REFERENCE_IMPORTS}; print(time.monotonic())"],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"reference interpreter exited with code {proc.returncode}")
    return float(proc.stdout) - spawned


def main() -> int:
    parser = argparse.ArgumentParser(description="restapprox benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "restapprox" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no restapprox sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    mode = "smoke" if args.smoke else "full"
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    plan = gen.make_plan(args.workload, args.seed, work / "inputs", mode)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    result_path = work / "result.json"

    setup, imported, references = [], [], []

    def set_up(extra: list[str], timed: bool = True) -> dict:
        reference = reference_import(deadline)
        spawned, result = run_worker(["--plan", str(plan_path), *extra], result_path, deadline)
        if timed:
            references.append(reference)
            setup.append(result["loaded"] - spawned)
            imported.append(result["imported"] - spawned)
        return result

    def in_reference_s(times: list[float]) -> float:
        return REFERENCE_S * statistics.median(t / r for t, r in zip(times, references))

    # Half the set-up samples come after the workload, so a slow spell of the
    # machine during the first seconds does not set the median.
    samples = SETUP_SAMPLES[mode]
    try:
        set_up(["--setup-only"], timed=False)
        for _ in range(samples // 2):
            set_up(["--setup-only"])
        result = set_up(["--seconds", str(args.seconds), "--trace", str(args.trace)])
        for _ in range(samples - samples // 2):
            set_up(["--setup-only"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)

    passes = result["passes"]
    attempted = result["ops_per_pass"] * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    digests = sorted({p["digest"] for p in passes})
    hits = sum(p["certified"][0] for p in passes)
    calls = sum(p["certified"][1] for p in passes)
    walls = [p["wall"] for p in passes]
    refs = [p["ref"] for p in passes]

    print(f"workload {args.workload} seed {args.seed} mode {mode} trace {args.trace}")
    print("env " + json.dumps({"nproc": os.cpu_count(), **result["versions"], **PINNED_THREADS}))
    print(f"passes {len(passes)} wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print("reference_s " + " ".join(f"{r:.5f}" for r in refs))
    print(f"setup samples {len(setup)} raw_setup_s " + " ".join(f"{s:.4f}" for s in setup))
    print("reference_import_s " + " ".join(f"{r:.4f}" for r in references))
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("digest " + " ".join(digests))

    if args.trace:
        values = dict(result["layers"], **{"setup.import_s": in_reference_s(imported)})
        wanted = spec["per_layer"]
        for name in sorted(set(values) - {m["name"] for m in wanted}):
            print(f"unlisted {name} {values[name]:.6g}")
    else:
        # Workloads without knapsack calls have no uncertified call: share 1.
        values = {
            "setup_s": in_reference_s(setup),
            "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": result["peak_rss_mb"],
            "certified_share": hits / calls if calls else 1.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
