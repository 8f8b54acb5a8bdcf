"""Tests of the benchmark itself: names, closed-form checks, job lists, counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import tracing
import workloads

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tmp_path, workload, seed, trace):
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text().splitlines()[-1])
    return result, record


def spans_of(workload, seed):
    path = HERE / "results" / f"spans-{workload}-seed{seed}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


# --- names ----------------------------------------------------------------

def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_command_metrics_are_declared_end_to_end():
    names = {m["name"] for m in BENCH["end_to_end"]}
    assert set(workloads.COMMAND_METRICS.values()) <= names


def test_traced_layer_metrics_are_declared_per_layer():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    computed = set(tracing.layer_metrics(tracing.Tracer()))
    computed |= {"io.bytes", "cli.import_s", "trace.overhead_s"}
    assert computed == per_layer


# --- closed-form checks fail on wrong values -------------------------------

def fails(fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        fn(*args, **kwargs)
    return True


def test_keller_exponent_vanishes_at_critical_eps():
    assert abs(checks.keller_exponent(3.0 - 2.0 * math.sqrt(2.0))) < 1e-15
    assert checks.keller_exponent(0.3) > 0.0 > checks.keller_exponent(0.1)


def test_certificate_check():
    good = {"alpha_star": 0.300006, "gamma": 1.0, "b": 1.0, "monotone": True}
    checks.certificate(good, alpha=0.3, gamma=1.0, grid=100000, monotone=True)
    assert fails(checks.certificate, dict(good, alpha_star=0.31), alpha=0.3, gamma=1.0,
                 grid=100000)
    assert fails(checks.certificate, dict(good, gamma=0.99), alpha=0.3, gamma=1.0, grid=100000)
    assert fails(checks.certificate, good, alpha=0.3, gamma=1.0, grid=100000, b=0.85)
    assert fails(checks.certificate, good, alpha=0.3, gamma=1.0, grid=100000, monotone=False)
    assert fails(checks.certificate, {}, alpha=0.3, gamma=1.0, grid=100000)


def test_keller_summary_check():
    good = {"positive_fraction": 1.0, "monotone_ok": True}
    checks.keller_summary(good, 0.5)
    assert fails(checks.keller_summary, dict(good, positive_fraction=0.99), 0.5)
    assert fails(checks.keller_summary, good, 0.1)  # lambda < 0 asks for 0
    assert fails(checks.keller_summary, dict(good, monotone_ok=False), 0.5)


def test_graph_and_sequence_checks():
    rows = [[repr(j / 8), "0.5"] for j in range(8)]
    checks.grid_graph(rows, 8, 1e-9, 1.0)
    assert fails(checks.grid_graph, rows[:-1], 8, 1e-9, 1.0)
    assert fails(checks.grid_graph, rows[:-1] + [["0.875", "0.0"]], 8, 1e-9, 1.0)
    checks.pullback_sequence({"values": [1.0, 0.8, 0.7]}, positive=True)
    assert fails(checks.pullback_sequence, {"values": [1.0, 0.8, 0.9]}, positive=True)
    assert fails(checks.pullback_sequence, {"values": [1.0, 0.0]}, positive=True)


def test_noinvattr_checks():
    checks.halving([0.25, 0.1, 0.05], 3)
    assert fails(checks.halving, [0.25, 0.3, 0.05], 3)
    assert fails(checks.halving, [0.25, 0.1], 3)
    checks.noinvattr_graph({"1.0": 1.0, "-1.0": 0.0}, {"-1.0": 1000})
    assert fails(checks.noinvattr_graph, {"1.0": 0.9, "-1.0": 0.0}, {"-1.0": 1000})
    assert fails(checks.noinvattr_graph, {"1.0": 1.0, "-1.0": 1e-6}, {"-1.0": 1000})


def test_verdict_demo_and_trace_checks():
    checks.verdict({"attractor": {"verdict": "attracting"}})
    assert fails(checks.verdict, {"attractor": {"verdict": "not-attracting"}})
    checks.demo_lines("PASS - a\nPASS - b\n")
    assert fails(checks.demo_lines, "PASS - a\nFAIL - b\n")
    assert fails(checks.demo_lines, "")
    rows = [["0", "0.2", "0.8"], ["1", "0.9", "0.95"], ["2", "1.0", "1.0"]]
    checks.trace_rows(rows, 2, fixed_point=1.0)
    assert fails(checks.trace_rows, rows, 2, fixed_point=0.8257)
    assert fails(checks.trace_rows, rows + [["3", "1.0", "1.5"]], 3)
    checks.trace_rows(rows, 2, full=True)
    assert fails(checks.trace_rows, rows, 3, full=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_job_rejects_empty_output(tmp_path, name):
    wl = workloads.build(name, 1, tmp_path)
    for job in wl.jobs:
        assert fails(job.check, "", ""), job.id


# --- seeded inputs --------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, name):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (workloads.build(name, seed, d) for seed, d in zip((7, 7, 8), dirs))
    assert a.inputs == b.inputs != c.inputs

    def argv(wl, d):
        return [[x.replace(str(d), "") for x in j.argv] for j in wl.jobs]

    assert argv(a, dirs[0]) == argv(b, dirs[1])


# --- compare --------------------------------------------------------------

def write_runs(path, workload, values):
    path.write_text("".join(
        json.dumps({"workload": workload, "metrics": {"wall_rel": v}}) + "\n" for v in values))


def test_compare_reports_unresolved_and_worse(tmp_path, capsys):
    steady, noisy, slower = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_runs(steady, "chain-shift", [1.0, 1.01, 0.99, 1.0, 1.0])
    write_runs(noisy, "chain-shift", [0.5, 1.5, 1.0, 0.6, 1.4])
    write_runs(slower, "chain-shift", [1.5, 1.51, 1.49, 1.5, 1.5])
    assert compare.main([str(steady), str(noisy)]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([str(steady), str(slower)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(steady), str(steady)]) == 0


# --- runs -----------------------------------------------------------------

def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, record = run_bench(tmp_path, "circle-product", 3, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(record["jobs"]) * record["passes"]
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["machine"]) == {"nproc", "python", "numpy", "cpu"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_repeats_counts_and_job_list(tmp_path, name):
    untraced_jobs = [j.id for j in workloads.build(name, 5, tmp_path).jobs]
    first, rec1 = run_bench(tmp_path, name, 5, 1)
    root_jobs = [s["job"] for s in spans_of(name, 5) if s["name"] == tracing.ROOT_SPAN]
    second, rec2 = run_bench(tmp_path, name, 5, 1)
    assert first["correct"] and second["correct"]
    assert root_jobs == untraced_jobs
    assert rec1["jobs"] == rec2["jobs"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for key in ("fiber.evals", "skew.step.calls", "attractor.pullback_grid.node_sweeps",
                "bases.predecessor.calls", "nonauto.map_profile.calls"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["parallel.map_ordered.calls"]["value"] == 0
    ratio = first["metrics"]["nonauto.map_profile.analytic_ratio"]["value"]
    if name == "circle-product":
        assert ratio == 1.0
    if name == "chain-shift":
        assert ratio < 0.5


def test_tracer_uninstall_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import skewlab.attractor
    import skewlab.cli
    import skewlab.fiber

    before = (skewlab.cli.pullback_grid, skewlab.attractor.step, skewlab.fiber.FiberMap.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    assert skewlab.cli.pullback_grid is not before[0]
    assert skewlab.attractor.step is not before[1]
    tracer.uninstall()
    after = (skewlab.cli.pullback_grid, skewlab.attractor.step, skewlab.fiber.FiberMap.__call__)
    assert after == before


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-shift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
