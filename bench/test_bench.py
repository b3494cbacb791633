"""Smoke tests of the benchmark itself: ``python3 -m pytest -q bench/test_bench.py``.

Every workload runs in ``--smoke`` mode (tiny inputs, every operation and
check), traced and untraced, and its last output line must follow the result
contract of ``run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 3, trace: int = 0, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc) -> str:
    (line,) = [x for x in proc.stdout.splitlines() if x.startswith("digest ")]
    return line.split()[1]


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(bench(w, trace=1)) for w in gen.WORKLOADS}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_end_to_end_result(workload):
    result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_per_layer_results(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for result in traced.values():
        assert result["correct"] is True
        assert list(result["metrics"]) == names
    # A listed metric that no workload produces would always read 0.  Smoke
    # mode runs only some criteria, and the overhead may be negative.
    skipped = {f"verify.criterion_{c:02d}_s" for c in range(1, 11)}
    skipped -= {f"verify.criterion_{c:02d}_s" for c in gen.SIZES["smoke"]["criteria"]}
    for name in set(names) - skipped - {"trace.overhead_s"}:
        assert any(r["metrics"][name]["value"] > 0 for r in traced.values()), name


def test_same_seed_same_digest():
    first, second, other = bench("norms-large", 5), bench("norms-large", 5), bench("norms-large", 6)
    assert digest_of(first) == digest_of(second) != digest_of(other)


def test_generator_is_seeded(tmp_path):
    a = gen.make_plan("approx-cli", 9, tmp_path / "a", "smoke")
    b = gen.make_plan("approx-cli", 9, tmp_path / "b", "smoke")
    assert [op["id"] for op in a["ops"]] == [op["id"] for op in b["ops"]]
    for name in a["inputs"]:
        assert Path(a["inputs"][name]).read_text() == Path(b["inputs"][name]).read_text()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("norms-large", root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
