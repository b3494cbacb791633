"""Seeded input generator and operation plans for the three workloads.

Everything here is plain text generation from ``random.Random(seed)``; the
program under test is not imported, so the inputs depend only on the seed and
the size table.  ``make_plan`` writes the ``.seq`` and ``.cfg`` files of one
workload into a directory and returns the operation list the worker runs.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("norms-large", "approx-cli", "verify-suite")

# Sizes per mode.  "full" is the benchmark; "smoke" keeps every operation
# and check but shrinks the inputs so the benchmark's own tests stay fast.
SIZES = {
    "full": {
        "dense_d1": (1000, 4000, 16000),
        "dense_d2": 4000,
        "gap_n": 1000,
        "gap_scale": 900,
        "sigma_n": (1000, 2000),
        "norm_n": 200,
        "exact_n": (16, 20),
        # Criterion 8 is left out: its frozen greedy score-ratio window fails
        # on about one seed in eight (see README.md, verify-suite).
        "criteria": (1, 2, 3, 4, 5, 6, 7, 9, 10),
    },
    "smoke": {
        "dense_d1": (40, 80, 160),
        "dense_d2": 60,
        "gap_n": 40,
        "gap_scale": 60,
        "sigma_n": (40, 60),
        "norm_n": 12,
        "exact_n": (8, 10),
        "criteria": (1, 4, 5),
    },
}

# Error space and measure shared by the norm inputs: s = 0 keeps the
# scale factors |Q|^(-1/2) far inside the float range even at scale 900, and
# p = q makes the aggregated and per-scale norms coincide (an output check).
NORM_S, NORM_P = 0.0, 1.5
LORENTZ_ALPHA = 1.0
LORENTZ_CASES = (("power:p=2", 2.0), ("powerlog:p=2,b=0.5", 2.0), ("power:p=2", math.inf))
BUDGET_FRACTIONS = (0.1, 0.3, 0.6)
# Error space and measure of every approx-cli command; p = q lets knapsack
# run, and xi * mu = 1 makes the approx-norm sandwich a checked row.
APPROX = {"s": 0.0, "p": 2.0, "q": 2.0, "alpha": 1.0, "xi": 0.5, "mu": 2.0}


def tree_cubes(rng: random.Random, n: int, d: int, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """``n`` distinct cubes drawn uniformly from all dyadic cubes of [0, 1)^d
    with scales 0..depth, as (j, k) pairs."""
    per_level = [1 << (j * d) for j in range(depth + 1)]
    if n > sum(per_level):
        raise ValueError("tree too small for the requested count")
    cubes = []
    for h in rng.sample(range(sum(per_level)), n):
        j = 0
        while h >= per_level[j]:
            h -= per_level[j]
            j += 1
        k = []
        for _ in range(d):
            k.append(h & ((1 << j) - 1))
            h >>= j
        cubes.append((j, tuple(k)))
    return cubes


def dense_depth(n: int, d: int) -> int:
    """Smallest depth whose tree holds at least 4n cubes."""
    depth = 0
    while sum(1 << (j * d) for j in range(depth + 1)) < 4 * n:
        depth += 1
    return depth


def gap_cubes(rng: random.Random, n: int, gap: int) -> list[tuple[int, tuple[int, ...]]]:
    """Half the cubes dense near scale 0, half within 10 scales of ``gap``
    with no cube in between, so each fine cube walks ~gap ancestors."""
    coarse = tree_cubes(rng, n // 2, 1, dense_depth(n // 2, 1))
    fine: set[tuple[int, tuple[int, ...]]] = set()
    while len(fine) < n - n // 2:
        j = rng.randint(gap - 10, gap)
        fine.add((j, (rng.getrandbits(j),)))
    return coarse + sorted(fine)


def signed(rng: random.Random, magnitude: float) -> float:
    return -magnitude if rng.random() < 0.5 else magnitude


def write_seq(path: Path, cubes, values) -> None:
    lines = [
        f"{j} {' '.join(str(v) for v in k)} {value!r}\n"
        for (j, k), value in zip(cubes, values)
    ]
    path.write_text("".join(lines))


def write_cfg(path: Path, **values) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def norms_large_plan(rng: random.Random, out: Path, sizes: dict) -> dict:
    inputs = {}
    for n in sizes["dense_d1"]:
        inputs[f"d1-n{n}"] = (tree_cubes(rng, n, 1, dense_depth(n, 1)), 1)
    n2 = sizes["dense_d2"]
    inputs[f"d2-n{n2}"] = (tree_cubes(rng, n2, 2, dense_depth(n2, 2)), 2)
    inputs[f"d1-gap{sizes['gap_scale']}"] = (gap_cubes(rng, sizes["gap_n"], sizes["gap_scale"]), 1)
    ops = []
    files = {}
    for name, (cubes, d) in inputs.items():
        values = [signed(rng, 10.0 ** rng.uniform(-1.0, 1.0)) for _ in cubes]
        path = out / f"{name}.seq"
        write_seq(path, cubes, values)
        files[name] = str(path)
        ops.append({"id": f"{name}/read", "kind": "read", "input": name})
        for q in (NORM_P, math.inf):
            ops.append({"id": f"{name}/tl-q{_fmt(q)}", "kind": "tl", "input": name,
                        "s": NORM_S, "p": NORM_P, "q": q})
        ops.append({"id": f"{name}/besov", "kind": "besov", "input": name,
                    "s": NORM_S, "p": NORM_P, "q": NORM_P,
                    "equals": f"{name}/tl-q{_fmt(NORM_P)}"})
        # The rearrangement rejects the wide-gap input: a 2^-900 mass cannot
        # raise a cumulative mass near 1, so its steps stop increasing.  That
        # input exists to isolate the forest's ancestor walk.
        if name.startswith("d1-gap"):
            continue
        for eta, mu in LORENTZ_CASES:
            ops.append({"id": f"{name}/lorentz-{eta}-mu{_fmt(mu)}", "kind": "lorentz",
                        "input": name, "alpha": LORENTZ_ALPHA, "eta": eta, "mu": mu})
    return {"inputs": files, "ops": ops}


def snapped_budget(cubes, values, fraction: float) -> float:
    """Mass of the longest prefix, in decreasing weight density, that fits in
    ``fraction`` of the total mass, for the ``APPROX`` space in d = 1.

    A budget filled exactly by the density prefix lets branch-and-bound
    certify its optimum in a few thousand nodes on every seed; a budget with
    slack hits the node cap on some seeds and not on others, and at the cap
    one call takes from 0.3 s to 6 s depending on the input.
    """
    masses = [math.ldexp(1.0, -j) for j, _ in cubes]
    order = sorted(range(len(cubes)), key=lambda i: (-(values[i] ** 2 / masses[i]), i))
    limit = fraction * math.fsum(masses)
    taken: list[float] = []
    for i in order:
        if math.fsum(taken) + masses[i] > limit:
            break
        taken.append(masses[i])
    return math.fsum(taken)


def approx_cli_plan(rng: random.Random, out: Path, sizes: dict, seed: int) -> dict:
    ops = []
    files = {}
    reports = out / "reports"

    def add_input(name: str, cubes, values) -> None:
        files[name] = str(out / f"{name}.seq")
        write_seq(out / f"{name}.seq", cubes, values)

    def plain_values(cubes) -> list[float]:
        return [signed(rng, 10.0 ** rng.uniform(-1.0, 1.0)) for _ in cubes]

    def cli(op_id: str, command: str, input_name: str | None, cfg: Path, **extra) -> None:
        argv = [command]
        if input_name is not None:
            argv.append(files[input_name])
        argv += ["--config", str(cfg), "--out", str(reports / op_id.replace("/", "_")),
                 "--format", "json", "--seed", str(seed)]
        ops.append({"id": op_id, "kind": "cli", "command": command, "argv": argv,
                    "input": input_name, **extra})

    space_keys = dict(s=APPROX["s"], p=APPROX["p"], q=APPROX["q"], kind="tl", alpha=APPROX["alpha"])
    for n in sizes["sigma_n"]:
        name = f"sigma-n{n}"
        cubes = tree_cubes(rng, n, 1, dense_depth(n, 1))
        # Coefficients decaying like |Q|^(1/2) spread the weight densities
        # over four decades at every scale.
        values = [signed(rng, math.ldexp(1.0, -j) ** 0.5 * 10.0 ** rng.uniform(-1.0, 1.0))
                  for j, _ in cubes]
        add_input(name, cubes, values)
        for fraction in BUDGET_FRACTIONS:
            budget = snapped_budget(cubes, values, fraction)
            for solver in ("knapsack", "greedy"):
                cfg = out / f"{name}-b{fraction}-{solver}.cfg"
                write_cfg(cfg, **space_keys, budget=repr(budget), solver=solver)
                extra = {"budget": budget, "solver": solver}
                if solver == "knapsack":
                    extra["greedy"] = f"{name}/sigma-b{fraction}-greedy"
                cli(f"{name}/sigma-b{fraction}-{solver}", "sigma", name, cfg, **extra)

    n = sizes["norm_n"]
    name = f"norm-n{n}"
    cubes = tree_cubes(rng, n, 1, dense_depth(n, 1))
    add_input(name, cubes, plain_values(cubes))
    cfg = out / "norm.cfg"
    write_cfg(cfg, **space_keys, eta="power:p=2", mu=2.0,
              approx_xi=APPROX["xi"], approx_mu=APPROX["mu"], solver="greedy")
    cli(f"{name}/norm", "norm", name, cfg)
    approx_keys = dict(space_keys, xi=APPROX["xi"], mu=APPROX["mu"])
    cfg = out / "approx-greedy.cfg"
    write_cfg(cfg, **approx_keys, solver="greedy")
    cli(f"{name}/approx-norm-greedy", "approx-norm", name, cfg, solver="greedy")

    cfg = out / "approx-knapsack.cfg"
    write_cfg(cfg, **approx_keys, solver="knapsack")
    for n in sizes["exact_n"]:
        name = f"exact-n{n}"
        cubes = tree_cubes(rng, n, 1, dense_depth(n, 1))
        add_input(name, cubes, plain_values(cubes))
        cli(f"{name}/approx-norm-knapsack", "approx-norm", name, cfg,
            solver="knapsack", profile_check=n <= 16)

    cfg = out / "jackson.cfg"
    write_cfg(cfg)
    cli("jackson", "jackson", None, cfg)
    return {"inputs": files, "ops": ops, "approx_params": APPROX}


def verify_suite_plan(seed: int, sizes: dict) -> dict:
    # One operation per criterion, in verify.run_all's order and with its
    # arguments, so the reference loop also runs between criteria.
    ops = [{"id": f"criterion-{c:02d}", "kind": "criterion", "cid": c, "seed": seed}
           for c in sizes["criteria"]]
    return {"inputs": {}, "ops": ops}


def make_plan(workload: str, seed: int, out: Path, mode: str = "full") -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``out`` and return
    its plan: the input files and the operation list of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[mode]
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "norms-large":
        plan = norms_large_plan(rng, out, sizes)
    elif workload == "approx-cli":
        plan = approx_cli_plan(rng, out, sizes, seed)
    else:
        plan = verify_suite_plan(seed, sizes)
    plan.update(workload=workload, seed=seed, mode=mode)
    return plan
