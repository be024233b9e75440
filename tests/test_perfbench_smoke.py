"""The benchmark's smoke run on a copy of this checkout: every workload
BENCHMARK.json lists, untraced and traced, exits 0 with its output checks
passed and exactly the metric names and units BENCHMARK.json lists. A
change in src/ride that breaks a call perfbench makes (a renamed argument,
a positional one made keyword-only, a dropped `order=`) fails here."""
import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.fixture(scope="module")
def selftest(checkout):
    spec = importlib.util.spec_from_file_location(
        "perfbench_selftest", checkout / "perfbench" / "selftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_perfbench_smoke_run(checkout, selftest, workload, trace):
    done = selftest.run(BENCH, str(checkout), workload, trace)
    assert selftest.check_result(BENCH, done, trace) == []
