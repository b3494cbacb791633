"""Cross-version outcome diff: the same seeded instances through two trees of
the package, every outcome compared.

Usage:  python3 tests/crossver.py --parent DIR [--count N] [--seed S]
                                  [--expect LABEL ...]

DIR is another tree of this repository, such as ``git archive <rev>``
unpacked or a ``git worktree``; its ``src/`` holds the version to compare
with.  The script runs itself as a worker (``--worker``) twice at once, with
this tree's ``src/`` and with DIR's first on ``PYTHONPATH``.  Each worker
draws instance i from a generator seeded with ``(seed, i)``, which this file
holds, so both draw the same ``--count`` instances whatever the package
does.  For each instance a worker prints one line per outcome: its id, its
labels and its result, a float as ``float.hex``, a structured result (a
rearrangement, a profile, a decomposition, a support) as a digest of the
``float.hex`` of its numbers, or an error as its type and text.

An instance is hostile but valid: 1-160 distinct cubes of d = 1-3 at scales
near 0, to +-60, to +-1 200 or across a 900-scale gap, positions to 80 bits,
coefficients to 1e+-300 with ties, alpha in {0, 0.5, 1, U(-1, 1)}, tl and
besov spaces with p and q finite and inf, p = q and p != q, power and
power-log Lorentz weights, and xi and mu finite and inf.  Each instance
runs ``rearrange``, ``lorentz_norm``, ``space_norm``, ``besov_norm``,
``suffix_norms`` (of a random order of the support), ``sigma_greedy``,
knapsack and brute ``sigma_exact``, greedy and exact ``sigma_profile`` with
``SigmaProfile.norm`` and ``norm_dyadic``, ``approx_norm``,
``approx_norm_dyadic``, ``decompose``, ``jackson_constant`` and
``bernstein_constant``; the exact solvers on 10 cubes or fewer, exact
``decompose`` on 6 or fewer.  Each also builds one profile by hand, whose
errors may end in zeros, and takes both of its norms.  About one instance in
16 is xlarge: 128-4 000 distinct cubes near 0 or on a few scales across
-60..60, whose keys fit the forest's int64 path; it runs only the first five
of the calls above.

Every instance also makes one ``admissible_spread`` call, drawn from its own
generator seeded with ``(seed, i, 1)`` so that the draws above are not
moved: d = 1-3, q1 finite and inf, alpha matched, U(-3, 3) or U(-200, 200),
windows of depth 0-9, 1-100 families of 1-60 cubes.  Its outcome is the
bounds and that generator's next 32-bit word, which pins the state the call
leaves.  A last outcome runs one deep window, d = 3 over 18 scales with 8
families, whose draws replay but whose int64 forest keys pass 62 bits.

Every instance also takes one step list of its own, from a generator seeded
with ``(seed, i, 2)``: a power or power-log weight, mu finite or inf, 0-3
leading zero ends and 1-80 steps, some of them one to three ulps wide or of
zero length, from near 0 to past t = 1 or out to 1e+-300.  It runs
``weight_sups`` and, for finite mu, ``weight_integrals``.

A difference is expected when one of its outcome's labels is named by
``--expect``:

* ``xi-rounding``: the outcome takes the rate weight t^xi as the power
  weight of index 1/xi (``SigmaProfile.norm`` and what reads it), and
  1/(1/xi) != xi;
* ``zero-tail``: a hand-built profile whose errors end in zeros;
* ``xi-subnormal``: the same outcomes, where 1/xi overflows.

Any other difference is unexpected; the first ten are printed with their
instance.  The last line is the summary: outcomes, equal ones, expected
differences per label with the largest relative difference between two
finite results among them, and unexpected ones.  Exit 1 when any difference
is unexpected, or when the two workers' outcome ids do not align.

Standard library and numpy only.  The file is not named ``test_*``, so
tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LABELS = ("xi-rounding", "zero-tail", "xi-subnormal")

# Cubes at most of an exact profile (every subset, or the Pareto frontier),
# of an exact decompose (one exact search per budget), and of a knapsack.
_EXACT_CUBES = 10
_EXACT_DECOMPOSE_CUBES = 6
_KNAPSACK_CUBES = 40


def _hex(x: float) -> str:
    return float(x).hex()


def _digest(numbers) -> str:
    text = ",".join(_hex(x) if isinstance(x, float) else repr(x) for x in numbers)
    return "digest:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _draw_cubes(rng: np.random.Generator):
    """(d, [(j, k)], xlarge): up to 160 cubes, duplicates dropped by the
    caller, or for an xlarge instance 128-4 000 distinct cubes."""
    d = int(rng.choice([1, 2, 3], p=[0.6, 0.25, 0.15]))
    size = rng.choice(["small", "medium", "large", "xlarge"], p=[0.66, 0.2, 0.08, 0.06])
    if size == "xlarge":
        return d, _draw_xlarge_cubes(rng, d), True
    n = {"small": (1, 10), "medium": (11, 40), "large": (64, 160)}[size]
    n = int(rng.integers(n[0], n[1] + 1))
    regime = rng.choice(["near", "wide", "huge", "gap", "far"], p=[0.55, 0.2, 0.1, 0.08, 0.07])
    cubes = []
    for _ in range(n):
        if regime == "near":
            j, lo = int(rng.integers(-3, 4)), -3
        elif regime == "wide":
            j, lo = int(rng.integers(-60, 61)), -60
        elif regime == "huge":
            j, lo = int(rng.integers(-1200, 1201)), -1200
        elif regime == "gap":
            j, lo = int(rng.integers(0, 3)) + 900 * int(rng.integers(0, 2)), 0
        else:  # positions of up to 80 bits
            j, lo = int(rng.integers(70, 81)), 0
        bits = min(j - lo, 80)
        k = tuple(
            int(rng.integers(0, 1 << min(bits, 40))) << max(bits - 40, 0)
            for _ in range(d)
        )
        cubes.append((j, k))
    return d, cubes, False


def _draw_xlarge_cubes(rng: np.random.Generator, d: int) -> list:
    """128-4 000 distinct cubes whose keys fit the forest's int64 path.

    near: scales lo..lo + depth, positions from one before to one past the
    unit cube's.  wide: two to four scales anywhere in -60..60, positions
    small enough that the capped levels and the keys stay inside 62 bits.
    """
    n = int(rng.integers(128, 4001))
    cubes: dict = {}
    if rng.random() < 0.5:  # near
        lo, depth = int(rng.integers(-3, 1)), {1: 12, 2: 6, 3: 4}[d]
        while len(cubes) < n:
            t = rng.integers(0, depth + 1, size=n)
            ks = rng.integers(-1, (1 << t)[:, None] + 1, size=(n, d))
            cubes.update(dict.fromkeys(zip((lo + t).tolist(), map(tuple, ks.tolist()))))
    else:  # wide
        m = int(rng.integers(2, {1: 4, 2: 3, 3: 3}[d] + 1))
        scales = rng.choice(np.arange(-60, 61), size=m, replace=False)
        half = math.ceil((n / m) ** (1 / d)) + 1
        while len(cubes) < n:
            js = scales[rng.integers(0, m, size=n)]
            ks = rng.integers(-half, half, size=(n, d))
            cubes.update(dict.fromkeys(zip(js.tolist(), map(tuple, ks.tolist()))))
    return list(cubes)[:n]


def _draw_values(rng: np.random.Generator, n: int) -> list[float]:
    kind = rng.choice(["moderate", "extreme", "ties"], p=[0.7, 0.15, 0.15])
    if kind == "ties":
        magnitudes = rng.choice([3.0, 1.0, 0.5], size=n)
    elif kind == "extreme":
        magnitudes = 10.0 ** rng.uniform(-300, 300, size=n)
    else:
        magnitudes = 10.0 ** rng.uniform(-3, 3, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return [float(v) for v in signs * magnitudes]


def _draw_exponent(rng: np.random.Generator, lo: float, hi: float, inf_share: float) -> float:
    """inf, 1 or 2 (whole power-step exponents), or U(lo, hi)."""
    draw = rng.random()
    if draw < inf_share:
        return math.inf
    if draw < inf_share + 0.15:
        return float(rng.choice([1.0, 2.0]))
    return float(rng.uniform(lo, hi))


def _draw_xi(rng: np.random.Generator) -> float:
    kind = rng.choice(["uniform", "no-round-trip", "small", "subnormal"], p=[0.8, 0.1, 0.08, 0.02])
    if kind == "uniform":
        return float(rng.uniform(0.05, 3.0))
    if kind == "no-round-trip":
        return float(rng.choice([0.9, 0.45, 1.9, 0.5, 1.0]))
    if kind == "small":
        return float(10.0 ** rng.uniform(-6, -1))
    return 1e-310


def _draw_profile(rng: np.random.Generator):
    """Hand-built (breakpoints, errors): 1-6 steps, errors nonincreasing,
    the last one or two 0 in four profiles of ten."""
    m = int(rng.integers(1, 7))
    widths = 10.0 ** rng.uniform(-3, 3, size=m)
    if rng.random() < 0.2:
        widths[-1] = 1e300
    breakpoints = [0.0]
    for width in widths:
        breakpoints.append(breakpoints[-1] + float(width))
    errors = sorted((float(e) for e in 10.0 ** rng.uniform(-3, 3, size=m)), reverse=True)
    if rng.random() < 0.4:
        for k in range(max(m - int(rng.integers(1, 3)), 1), m):
            errors[k] = 0.0
    return tuple(breakpoints), tuple(errors)


def _draw_spread(rng: np.random.Generator):
    """An ``admissible_spread`` call: (d, s1, p1, q1, s2, p2, q2, alpha,
    n_sets, cube_count, j_min, j_max).  alpha is the matched one, U(-3, 3)
    or U(-200, 200); the window has depth 0-9 from j_min in -4..3; four calls
    in five ask for no more cubes than the window holds."""
    d = int(rng.integers(1, 4))
    s1, s2 = (float(x) for x in rng.uniform(-1.0, 1.0, size=2))
    p1, p2, q2 = float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
    q1 = math.inf if rng.random() < 0.3 else float(rng.uniform(0.3, 4.0))
    kind = rng.choice(["matched", "near", "far"], p=[0.4, 0.4, 0.2])
    alpha = None if kind == "matched" else float(rng.uniform(*{"near": (-3, 3), "far": (-200, 200)}[kind]))
    j_min, depth = int(rng.integers(-4, 4)), int(rng.integers(0, 10))
    n_sets, cube_count = int(rng.integers(1, 101)), int(rng.integers(1, 61))
    if rng.random() < 0.8:
        cube_count = min(cube_count, sum(1 << (d * level) for level in range(depth + 1)))
    return d, s1, p1, q1, s2, p2, q2, alpha, n_sets, cube_count, j_min, j_min + depth


def _spread(ra, rng: np.random.Generator, call) -> str:
    """The bounds of one ``admissible_spread`` call as ``float.hex``, or its
    error's type and text, and the generator's next 32-bit word."""
    d, s1, p1, q1, s2, p2, q2, alpha, n_sets, cube_count, j_min, j_max = call
    try:
        f1 = ra.SpaceParams(s1, p1, q1, d, "tl")
        f2 = ra.SpaceParams(s2, p2, q2, d, "besov")
        if alpha is None:
            alpha = ra.DemocracyCase(f1, f2, 0.0).formula_alpha
        case = ra.DemocracyCase(f1, f2, alpha)
        result = ",".join(map(_hex, ra.admissible_spread(case, rng, n_sets, cube_count, j_min, j_max)))
    except Exception as exc:  # every outcome is recorded, errors included
        result = f"{type(exc).__name__}: {exc}"
    return f"{result} next={int(rng.integers(0, 1 << 32))}"


def _draw_steps(rng: np.random.Generator):
    """A ``weight_integrals`` and ``weight_sups`` call: (family, p, b, mu,
    masses).  p is U(0.5, 4), b U(-2, 2) for power-log weights, mu finite or
    inf.  The masses start with 0-3 zero ends, then 1-80 ends, each one to
    three ulps past the last (15 %), equal to it (5 %), or up to 11 times it;
    the first positive end is 10^U(-8, 4), or 10^U(-300, 300) in one list of
    ten."""
    family = "power" if rng.random() < 0.5 else "powerlog"
    p = float(rng.uniform(0.5, 4.0))
    b = float(rng.uniform(-2.0, 2.0)) if family == "powerlog" else 0.0
    mu = _draw_exponent(rng, 0.3, 4.0, 0.2)
    exponents = (-300, 300) if rng.random() < 0.1 else (-8, 4)
    masses = [0.0] * int(rng.integers(0, 4))
    end = 0.0
    for _ in range(int(rng.integers(1, 81))):
        draw = rng.random()
        if end == 0.0:
            end = float(10.0 ** rng.uniform(*exponents))
        elif draw < 0.15:  # ulp-narrow
            for _ in range(int(rng.integers(1, 4))):
                end = math.nextafter(end, math.inf)
        elif draw >= 0.2:  # 0.15 <= draw < 0.2 leaves a step of zero length
            end += float(10.0 ** rng.uniform(-3, 1)) * end
        masses.append(end)
    return family, p, b, mu, masses


def _steps(ra, call, sups: bool) -> str:
    """The digest of one ``weight_sups`` or ``weight_integrals`` call."""
    family, p, b, mu, masses = call
    eta = ra.WeightFn(family, p, b)
    if sups:
        return _digest(ra.weight_sups(eta, masses))
    return _digest(ra.weight_integrals(eta, mu, masses))


# A deep window whose families replay but whose 8 families' int64 keys pass
# 62 bits: d = 3 over 18 scales.
_DEEP_SPREAD = (3, 0.2, 1.6, 2.3, 0.7, 1.9, 3.1, None, 8, 30, -3, 14)


def worker(count: int, seed: int) -> None:
    """Print every outcome of the ``count`` instances of ``seed``."""
    import restapprox as ra

    out = sys.stdout

    def run(key: str, labels: list[str], compute) -> None:
        try:
            result = compute()
        except Exception as exc:  # every outcome is recorded, errors included
            result = f"{type(exc).__name__}: {exc}"
        else:
            result = _hex(result) if isinstance(result, float) else result
        out.write(f"{key}\t{','.join(labels) or '-'}\t{result}\n")

    for i in range(count):
        rng = np.random.default_rng([seed, i])
        d, cubes, xlarge = _draw_cubes(rng)
        values = _draw_values(rng, len(cubes))
        alpha = float(rng.choice([0.0, 0.5, 1.0, rng.uniform(-1, 1)]))
        s_exp = float(rng.uniform(-1, 1))
        p = _draw_exponent(rng, 0.5, 3.0, 0.1)
        q = p if rng.random() < 0.4 else _draw_exponent(rng, 0.5, 3.0, 0.15)
        kind = "tl" if math.isfinite(p) and rng.random() < 0.6 else "besov"
        xi, mu = _draw_xi(rng), _draw_exponent(rng, 0.3, 4.0, 0.2)
        eta_p = _draw_exponent(rng, 0.5, 4.0, 0.0)
        eta_b = float(rng.uniform(-2.0, 2.0)) if rng.random() < 0.4 else None
        lorentz_mu = _draw_exponent(rng, 0.5, 4.0, 0.2)
        lorentz_xi = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 2.0))
        budget_share = float(rng.uniform(0.0, 1.1))
        breakpoints, errors = _draw_profile(rng)
        # Its own generator, so that the instance's draws are unchanged.
        spread_rng = np.random.default_rng([seed, i, 1])
        call = _draw_spread(spread_rng)
        step_call = _draw_steps(np.random.default_rng([seed, i, 2]))
        out.write(
            f"{i}.instance\t-\td={d} n={len(cubes)} alpha={alpha!r} s={s_exp!r} p={p!r} "
            f"q={q!r} kind={kind} xi={xi!r} mu={mu!r} eta=({eta_p!r}, {eta_b!r}) "
            f"lorentz=({lorentz_mu!r}, {lorentz_xi!r}) profile={breakpoints!r}, {errors!r} "
            f"spread={call!r} steps={step_call!r}\n"
        )

        subnormal = ["xi-subnormal"] if 1.0 / xi == math.inf else []
        rounding = ["xi-rounding"] if not subnormal and 1.0 / (1.0 / xi) != xi else []
        zero_tail = ["zero-tail"] if errors[-1] == 0.0 else []
        through_weight = rounding + subnormal  # reads xi through t^xi

        hand = partial(ra.SigmaProfile, breakpoints, errors)
        run(f"{i}.hand.norm", through_weight + zero_tail, lambda: hand().norm(xi, mu))
        run(f"{i}.hand.norm_dyadic", zero_tail, lambda: hand().norm_dyadic(xi, mu))
        run(f"{i}.admissible_spread", [], lambda: _spread(ra, spread_rng, call))
        run(f"{i}.weight_sups", [], lambda: _steps(ra, step_call, sups=True))
        if math.isfinite(step_call[3]):
            run(f"{i}.weight_integrals", [], lambda: _steps(ra, step_call, sups=False))

        try:
            s = ra.CoeffSeq({ra.Cube(j, k): v for (j, k), v in zip(cubes, values)})
            measure = ra.MeasureSpec(alpha)
            space = ra.SpaceParams(s_exp, p, q, d, kind)
            besov = ra.SpaceParams(s_exp, p, q, d, "besov")
            eta = ra.WeightFn.power(eta_p) if eta_b is None else ra.WeightFn.power_log(eta_p, eta_b)
            lorentz = ra.LorentzParams(eta, lorentz_mu, lorentz_xi)
        except Exception as exc:
            out.write(f"{i}.setup\t-\t{type(exc).__name__}: {exc}\n")
            continue
        params = partial(ra.ApproxParams, xi, mu, space, measure)
        n = len(s)

        def steps():
            r = ra.rearrange(s, measure)
            return _digest((*r.masses, *r.values))

        run(f"{i}.rearrange", [], steps)
        run(f"{i}.lorentz_norm", [], lambda: ra.lorentz_norm(s, measure, lorentz))
        run(f"{i}.space_norm", [], lambda: ra.space_norm(s, space))
        run(f"{i}.besov_norm", [], lambda: ra.besov_norm(s, besov))
        support = list(s)
        suffix_order = [support[c] for c in rng.permutation(len(support))]
        run(f"{i}.suffix_norms", [], lambda: _digest(ra.suffix_norms(s, space, suffix_order)))
        if xlarge:
            continue

        def budget() -> float:
            return budget_share * ra.nu_measure(s, measure)

        def sigma(solve):
            result = solve()
            return _digest((result.error, *result.support, result.certified))

        run(f"{i}.sigma_greedy", [], lambda: sigma(lambda: ra.sigma_greedy(s, budget(), params())))
        exact = []
        if p == q and math.isfinite(p) and n <= _KNAPSACK_CUBES:
            exact.append("knapsack")
        if n <= _EXACT_CUBES:
            exact.append("brute")
        for solver in exact:
            run(
                f"{i}.sigma_exact.{solver}",
                [],
                lambda: sigma(lambda: ra.sigma_exact(s, budget(), params(), solver)),
            )
        for solver in ["greedy", *(exact if n <= _EXACT_CUBES else ())]:
            tag = f"{i}.{solver}"

            def profile():
                return ra.sigma_profile(s, params(), solver)

            def profile_digest():
                prof = profile()
                return _digest((*prof.breakpoints, *prof.errors))

            run(f"{tag}.profile", [], profile_digest)
            run(f"{tag}.profile.norm", through_weight, lambda: profile().norm(xi, mu))
            run(f"{tag}.profile.norm_dyadic", [], lambda: profile().norm_dyadic(xi, mu))
            run(f"{tag}.approx_norm", through_weight, lambda: ra.approx_norm(s, params(), solver))
            run(f"{tag}.approx_norm_dyadic", [], lambda: ra.approx_norm_dyadic(s, params(), solver))
            if solver == "greedy" or n <= _EXACT_DECOMPOSE_CUBES:

                def pieces():
                    result = ra.decompose(s, params(), solver)
                    numbers = [result.score]
                    for k, piece in result.pieces:
                        numbers += [k, *(x for item in sorted(piece.items()) for x in item)]
                    return _digest(numbers)

                run(f"{tag}.decompose", [], pieces)
            run(
                f"{tag}.jackson_constant",
                through_weight,  # its numerator is the profile's sup norm
                lambda: ra.jackson_constant([s], params(), lorentz, solver),
            )
        run(f"{i}.bernstein_constant", [], lambda: ra.bernstein_constant([s], params(), lorentz))
    out.write(f"deep.instance\t-\tadmissible_spread{_DEEP_SPREAD!r}\n")
    run("deep.admissible_spread", [], lambda: _spread(ra, np.random.default_rng(seed), _DEEP_SPREAD))
    out.flush()


def _outcomes(tree: Path, count: int, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, __file__, "--worker", "--count", str(count), "--seed", str(seed)]
    return subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _relative(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two finite results, else 0."""
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except ValueError:  # an error or a digest
        return 0.0
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(parent: Path, count: int, seed: int, expect: set[str]) -> int:
    procs = [_outcomes(ROOT, count, seed), _outcomes(parent, count, seed)]
    (ours, our_err), (theirs, their_err) = (proc.communicate() for proc in procs)
    for name, proc, err in (("this tree", procs[0], our_err), ("parent", procs[1], their_err)):
        if proc.returncode != 0:
            print(f"the {name}'s worker failed:\n{err}")
            return 1
    ours, theirs = ours.splitlines(), theirs.splitlines()
    keys = [line.split("\t", 1)[0] for line in ours]
    if keys != [line.split("\t", 1)[0] for line in theirs]:
        print("the two workers' outcome ids do not align")
        return 1
    instance = {}
    equal = expected = unexpected = 0
    per_label = {label: [0, 0.0] for label in sorted(expect)}  # count, largest relative
    for mine, old in zip(ours, theirs):
        key, labels, result = mine.split("\t", 2)
        if key.endswith(".instance"):
            instance[key.split(".", 1)[0]] = result
            continue
        old_result = old.split("\t", 2)[2]
        if result == old_result:
            equal += 1
            continue
        named = [label for label in labels.split(",") if label in expect]
        if named:
            expected += 1
            for label in named:
                tally = per_label[label]
                tally[0] += 1
                tally[1] = max(tally[1], _relative(result, old_result))
            continue
        unexpected += 1
        if unexpected <= 10:
            print(f"{key} [{labels}]\n  parent: {old_result}\n  this:   {result}")
            print(f"  instance: {instance[key.split('.', 1)[0]]}")
    labels = "; ".join(
        f"{label}: {n}, largest relative {worst:.2e}" for label, (n, worst) in per_label.items()
    )
    print(
        f"crossver: {equal + expected + unexpected} outcomes of {count} instances "
        f"(seed {seed}), {equal} equal, {expected} expected differences "
        f"({labels or 'none named'}), {unexpected} unexpected"
    )
    return 1 if unexpected else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the other tree to compare with")
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--expect", nargs="*", default=[], choices=LABELS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.count, args.seed)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    return compare(args.parent.resolve(), args.count, args.seed, set(args.expect))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
