"""Tests of the benchmark itself: reduced-size runs and the tracer."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        out = run.run_workload(workload, 0, 0, trace, tmp_path, small=True)
        result = out["result"]
        assert out["errors"] == [] and result["correct"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
        assert (tmp_path / f"answers-{workload}-seed0.jsonl").read_text()


def test_attempted_and_failed_do_not_depend_on_run_length(tmp_path):
    short = run.run_workload("negotiate", 0, 0, False, tmp_path, small=True)
    long = run.run_workload("negotiate", 0, 3, False, tmp_path, small=True)
    assert long["summary"]["calls"] > short["summary"]["calls"]
    for out in (short, long):
        # the small inputs are the crossing and the swap, which exits 3
        assert (out["result"]["attempted"], out["result"]["failed"]) == (2, 1)


def _bindings():
    modules = [importlib.import_module(tracer.PACKAGE)] + [
        importlib.import_module(f"{tracer.PACKAGE}.{layer}") for layer in tracer.LAYERS
    ]
    return {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_leaves_package_functions_unchanged(tmp_path):
    before = _bindings()
    out = run.run_workload("negotiate", 0, 0, True, tmp_path, small=True)
    assert out["result"]["metrics"]["game.pair_checks"]["value"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    from junctionplan import world

    original = world.gen_world
    t = tracer.Tracer()
    t.install()
    try:
        assert world.gen_world is not original
        with t.span("outer"):
            with pytest.raises(ValueError):
                world.gen_world(0, -1, (0, 0, 1, 1), ())
    finally:
        t.uninstall()
    assert world.gen_world is original
    assert t.stack == []
    assert [t.names[s[0]] for s in t.spans] == ["outer", "world.gen_world"]
    outer, child = t.spans
    assert outer[3] == -1 and child[3] == 0
    assert t.calls[("world", "world.gen_world")] == 1
    self_s = t.self_times()
    assert self_s["outer"] == pytest.approx((outer[2] - outer[1]) - (child[2] - child[1]))
    t.write(tmp_path / "spans.csv.gz")


def test_exits_nonzero_without_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch50",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
