"""One workload in one fresh interpreter: set-up, timed passes, output checks.

Run by ``run.py``; not meant to be started by hand.  ``run.py`` times set-up
from the spawn of this interpreter to the ``loaded`` time it reports.  With
``--setup-only`` the worker stops once the package is imported and the inputs
are loaded.  Otherwise it repeats passes over the plan's operation list until
``--seconds`` is used up and writes a JSON result file:

* untraced: every operation is timed while a timer signal samples the
  machine's speed with a short reference loop; the outputs of every pass are
  checked and hashed.
* traced: one warm-up pass, then untraced and traced passes in turn.  A
  traced pass records a span around each call into the package and, after
  each operation, makes direct "probe" calls into the layers the operation
  goes through.  Probes are not part of an operation's time.  Every span is
  written to ``trace.jsonl`` once, at exit.
"""

import argparse
import hashlib
import json
import math
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer

import restapprox
from restapprox import approx, cli, dyadic, lorentz, report, spaces, verify, weights

IMPORTED = time.monotonic()

REL_TOL = 1e-12
# A median needs more than one pass, even when one pass outlasts --seconds.
MIN_PASSES = 2
# While an operation runs, the reference loop is timed every SAMPLE_EVERY_S
# seconds of wall time, so the samples weigh the machine's speed by the time
# the operations spend at it.  The loop takes about 0.5 ms, 1 % of the time.
SAMPLE_EVERY_S = 0.05
SAMPLE_ITERATIONS = 1000


class Workload:
    """The plan of one workload, its loaded inputs, and the checks."""

    def __init__(self, plan: dict, seqs: dict):
        self.plan = plan
        self.seqs = seqs
        self.ops = plan["ops"]
        self.profiles_checked = False
        self.tracer: Tracer | None = None
        # One entry per knapsack ``sigma`` call checked in a pass: certified?
        self.knapsack_certified: list[bool] = []

    # -- the operations ----------------------------------------------------

    def span(self, name: str, op_id: str):
        """A span around a call into the package, when the pass is traced."""
        return self.tracer.span(name, op_id) if self.tracer else nullcontext()

    def space(self, op: dict, kind: str) -> spaces.SpaceParams:
        d = self.seqs[op["input"]].d
        return spaces.SpaceParams(op["s"], op["p"], op["q"], d, kind)

    def run_op(self, op: dict):
        """Run one operation; return its result for checking and hashing."""
        kind = op["kind"]
        op_id = op["id"]
        if kind == "read":
            with self.span("cli.read_sequence", op_id):
                seq = cli.read_sequence(self.plan["inputs"][op["input"]])
            return [len(seq), math.fsum(v for _, v in seq.items())]
        if kind in ("tl", "besov"):
            fn = spaces.tl_norm if kind == "tl" else spaces.besov_norm
            params = self.space(op, kind)
            with self.span(f"spaces.{kind}_norm", op_id):
                return fn(self.seqs[op["input"]], params)
        if kind == "lorentz":
            params = lorentz.LorentzParams(weights.WeightFn.parse(op["eta"]), op["mu"])
            measure = dyadic.MeasureSpec(op["alpha"])
            with self.span("lorentz.lorentz_norm", op_id):
                return lorentz.lorentz_norm(self.seqs[op["input"]], measure, params)
        if kind == "cli":
            with self.span(f"cli.{op['command']}", op_id):
                code = cli.main(op["argv"])
            return {"exit": code, "rows": self.report_rows(op)}
        if kind == "criterion":
            with self.span(f"verify.criterion_{op['cid']:02d}", op_id):
                result = getattr(verify, f"criterion_{op['cid']}")(op["seed"])
            return [result.cid, result.passed, result.details]
        raise ValueError(f"unknown operation kind {kind!r}")

    @staticmethod
    def report_path(op: dict) -> Path:
        out = Path(op["argv"][op["argv"].index("--out") + 1])
        return out / f"{op['command']}.json"

    def report_rows(self, op: dict) -> list[dict]:
        path = self.report_path(op)
        return json.loads(path.read_text()) if path.exists() else []

    # -- probes: direct calls into the layers an operation goes through ----

    def probe(self, op: dict) -> None:
        op_id = op["id"]
        kind = op["kind"]
        t = self.tracer
        if kind == "tl" and math.isfinite(op["q"]):
            seq = self.seqs[op["input"]]
            with t.span("dyadic.forest", op_id):
                forest = dyadic.ContainmentForest(seq.support)
            t.count("dyadic.forest_nodes", len(forest))
            scales = [q.j for q in seq.support]
            t.counts["dyadic.scale_gap"] = max(t.counts["dyadic.scale_gap"], max(scales) - min(scales))
        elif kind == "lorentz" and op["eta"].startswith("powerlog"):
            seq = self.seqs[op["input"]]
            params = lorentz.LorentzParams(weights.WeightFn.parse(op["eta"]), op["mu"])
            with t.span("lorentz.rearrange", op_id):
                steps = lorentz.rearrange(seq, dyadic.MeasureSpec(op["alpha"]))
            t.count("lorentz.rearrange_steps", len(steps.masses))
            w = params.combined_weight
            for start, end, _ in steps.pieces():
                with t.span("weights.weight_integral", op_id):
                    weights.weight_integral(w, params.mu, start, end)
                t.count("weights.weight_integral_calls")
        elif kind == "cli":
            self.probe_cli(op)

    def probe_cli(self, op: dict) -> None:
        t = self.tracer
        op_id = op["id"]
        command = op["command"]
        if op["input"] is not None:
            with t.span("cli.read_sequence", op_id):
                seq = cli.read_sequence(self.plan["inputs"][op["input"]])
        if command == "sigma":
            # cli.run_sigma fixes xi = mu = 1; they play no part in sigma.
            params = self.approx_params(seq, xi=1.0, mu=1.0)
            if op["solver"] == "knapsack":
                with t.span("approx.sigma_exact", op_id):
                    result = approx.sigma_exact(seq, op["budget"], params, mode="knapsack")
                t.count("approx.bnb_nodes", result.nodes)
            else:
                with t.span("approx.sigma_greedy", op_id):
                    approx.sigma_greedy(seq, op["budget"], params)
        elif command == "approx-norm":
            params = self.approx_params(seq)
            solver = op["solver"]
            with t.span("approx.sigma_profile", op_id):
                profile = approx.sigma_profile(seq, params, solver)
            t.count("approx.profile_points", len(profile.breakpoints))
            if solver != "greedy":
                t.count("approx.enumerated_subsets", 1 << len(seq))
            with t.span("approx.approx_norm", op_id):
                approx.approx_norm(seq, params, solver)
            with t.span("approx.approx_norm_dyadic", op_id):
                approx.approx_norm_dyadic(seq, params, solver)
        rows = [
            report.ReportRow(**{**m, "wall_time_s": float(m["wall_time_s"])})
            for m in self.report_rows(op)
        ]
        out = self.report_path(op).parent.with_name(self.report_path(op).parent.name + "-probe")
        with t.span("report.write_report", op_id):
            report.write_report(rows, out, command, "json")
        t.count("report.rows", len(rows))

    def approx_params(self, seq, **override) -> approx.ApproxParams:
        a = {**self.plan["approx_params"], **override}
        space = spaces.SpaceParams(a["s"], a["p"], a["q"], seq.d, "tl")
        return approx.ApproxParams(a["xi"], a["mu"], space, dyadic.MeasureSpec(a["alpha"]))

    # -- checks ------------------------------------------------------------

    def check(self, results: dict) -> list[str]:
        """Ids of the operations whose outputs fail a check."""
        failed = []
        self.knapsack_certified = []
        for op in self.ops:
            op_id = op["id"]
            if op_id not in results:
                continue
            try:
                ok = self.check_op(op, results[op_id], results)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"check failed: {op_id}", file=sys.stderr)
                failed.append(op_id)
        return failed

    def check_op(self, op: dict, value, results: dict) -> bool:
        kind = op["kind"]
        if kind in ("tl", "lorentz"):
            return math.isfinite(value) and value > 0
        if kind == "besov":
            other = results.get(op["equals"])
            return other is not None and abs(value - other) <= REL_TOL * max(abs(value), abs(other))
        if kind == "criterion":
            return value[1] is True
        if kind == "read":
            return value[0] == len(self.seqs[op["input"]])
        # kind == "cli": exit 0 and no failing row, plus per-command checks.
        rows = {row["id"]: row for row in value["rows"]}
        knapsack = op["command"] == "sigma" and op["solver"] == "knapsack"
        if knapsack:
            certified = rows.get("sigma/certified", {}).get("value") == "1"
            self.knapsack_certified.append(certified)
        if value["exit"] != 0 or not rows or any(r["status"] == "fail" for r in rows.values()):
            return False
        if op["command"] == "approx-norm":
            if rows.get("approx-norm/sandwich", {}).get("status") != "pass":
                return False
            if op.get("profile_check") and not self.profiles_checked:
                seq = cli.read_sequence(self.plan["inputs"][op["input"]])
                params = self.approx_params(seq)
                if approx.sigma_profile(seq, params, "knapsack") != approx.sigma_profile(
                    seq, params, "brute"
                ):
                    return False
        if knapsack and certified:
            greedy = {r["id"]: r for r in results[op["greedy"]]["rows"]}
            mine = float(rows["sigma/error"]["value"])
            theirs = float(greedy["sigma/error"]["value"])
            return mine <= theirs * (1 + REL_TOL)
        return True

    # -- passes ------------------------------------------------------------

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """One pass over the operations.  ``wall`` sums the operations' own
        times, without the sampler's; ``ref`` is the mean time of the
        reference loop sampled while they ran."""
        self.tracer = tracer
        results = {}
        raised = []
        wall = 0.0
        SAMPLER.samples.clear()
        begin = time.perf_counter()
        with self.span("bench.pass", "pass"):
            for op in self.ops:
                SAMPLER.spent = 0.0
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
                try:
                    results[op["id"]] = self.run_op(op)
                except Exception:
                    traceback.print_exc()
                    raised.append(op["id"])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                wall += time.perf_counter() - start - SAMPLER.spent
                if tracer and op["id"] in results:
                    self.probe(op)
        elapsed = time.perf_counter() - begin
        if not SAMPLER.samples:  # a pass shorter than one sampling period
            SAMPLER.sample()
        self.tracer = None
        failed = raised + self.check(results)
        self.profiles_checked = True
        digest = hashlib.sha256(
            json.dumps([[op["id"], _digestible(results.get(op["id"]))] for op in self.ops]).encode()
        ).hexdigest()
        return {"wall": wall, "ref": statistics.fmean(SAMPLER.samples), "elapsed": elapsed,
                "failed": sorted(set(failed)), "digest": digest,
                "certified": [sum(self.knapsack_certified), len(self.knapsack_certified)]}


class Sampler:
    """Times a reference loop, a fixed loop of dict, tuple and float work that
    does not touch the package, on each timer signal.  The machine's speed
    swings by up to a factor of two within seconds, and the loop swings with
    it, so operation time divided by the loop's mean time while the operations
    ran is steady from run to run where the time alone is not.  ``spent`` is
    the loop's time since it was last reset, which the caller takes out of the
    operation's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        table: dict[tuple[int, int], float] = {}
        acc = 0
        for i in range(SAMPLE_ITERATIONS):
            key = (i & 255, i & 3)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += i % 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed


SAMPLER = Sampler()


def _digestible(result):
    """The numeric content of a result: report values without wall times."""
    if isinstance(result, dict):
        return [result["exit"], [[r["id"], r["value"], r["status"]] for r in result["rows"]]]
    return result


def layer_metrics(tracer: Tracer, plan: dict) -> dict:
    """Per-layer metrics of one traced pass: self time per span name (as
    ``<name>_s``), the counters, and log-log slopes between the two largest
    dense 1-d inputs."""
    metrics = {f"{name}_s": value for name, value in tracer.self_times().items()}
    metrics.update(tracer.counts)
    sizes = sorted(
        (int(m.group(1)), name)
        for name in plan["inputs"]
        if (m := re.fullmatch(r"d1-n(\d+)", name))
    )
    if len(sizes) >= 2:
        (n_a, a), (n_b, b) = sizes[-2], sizes[-1]
        for metric, span in (("dyadic.forest_slope", "dyadic.forest"),
                             ("spaces.tl_norm_slope", "spaces.tl_norm"),
                             ("lorentz.rearrange_slope", "lorentz.rearrange")):
            t_a = tracer.durations(span, a + "/")
            t_b = tracer.durations(span, b + "/")
            if t_a > 0 and t_b > 0:
                metrics[metric] = math.log(t_b / t_a) / math.log(n_b / n_a)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text())
    seqs = {name: cli.read_sequence(path) for name, path in plan["inputs"].items()}
    loaded = time.monotonic()
    result = {"imported": IMPORTED, "loaded": loaded}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, SAMPLER.sample)
        work = Workload(plan, seqs)
        if args.trace:
            # A warm-up pass, then untraced and traced passes in turn, so
            # each traced pass has an untraced neighbour at a similar speed.
            passes = [work.run_pass()]
            begin = time.monotonic()
            pairs, tracers = [], []
            while True:
                tracer = Tracer()
                pair = (work.run_pass(), work.run_pass(tracer))
                pairs.append(pair)
                tracers.append(tracer)
                passes.extend(pair)
                if time.monotonic() - begin + sum(p["elapsed"] for p in pair) > args.seconds:
                    break
            with open(Path(args.result).with_name("trace.jsonl"), "w") as fh:
                for i, tracer in enumerate(tracers):
                    tracer.dump(fh, i)
            per_pass = [layer_metrics(t, plan) for t in tracers]
            names = sorted({name for m in per_pass for name in m})
            layers = {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in names}
            # Pass times in reference units, back in seconds at the run's speed.
            ref = statistics.median(p["ref"] for p in passes)
            layers["trace.overhead_s"] = ref * statistics.median(
                t["wall"] / t["ref"] - u["wall"] / u["ref"] for u, t in pairs
            )
            result["layers"] = layers
        else:
            begin = time.monotonic()
            passes = []
            while len(passes) < MIN_PASSES or (
                time.monotonic() - begin + passes[-1]["elapsed"] <= args.seconds
            ):
                passes.append(work.run_pass())
        result["passes"] = passes
        result["ops_per_pass"] = len(plan["ops"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import numpy
        import scipy

        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "restapprox": restapprox.__version__,
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
