"""The ``python -m repro`` CLI, driven in-process through main()."""

from __future__ import annotations

import json

import pytest

from repro.api.cli import BENCH_SPECS, SMOKE_SPEC, main
from repro.api.study import Study


def test_sweep_smoke_writes_the_json_artifact(tmp_path, capsys):
    out = tmp_path / "artifacts" / "smoke.json"
    assert main(["sweep", "--smoke", "--json", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "repro sweep --smoke" in captured
    payload = json.loads(out.read_text())
    assert len(payload) == len(Study.from_spec(SMOKE_SPEC))
    assert all("makespan" in point["values"] for point in payload)


def test_sweep_smoke_matches_the_facade_byte_for_byte(tmp_path):
    out = tmp_path / "smoke.json"
    assert main(["sweep", "--smoke", "--quiet", "--json", str(out)]) == 0
    direct = Study.from_spec(SMOKE_SPEC).run().to_json() + "\n"
    assert out.read_text() == direct


def test_sweep_flags_build_a_grid(tmp_path, capsys):
    code = main([
        "sweep", "--objective", "timeline",
        "--systems", "timeline", "--specs", "GPT-S",
        "--world-sizes", "8", "--batches", "1024", "2048",
        "--ns", "2", "--strategies", "none",
        "--json", "-",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    payload = json.loads(captured[captured.index("["):])
    assert len(payload) == 2


def test_sweep_json_stdout_only_when_quiet(capsys):
    assert main([
        "sweep", "--smoke", "--quiet", "--json", "-",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(Study.from_spec(SMOKE_SPEC))


def test_bench_list_and_unknown(capsys):
    assert main(["bench", "--list"]) == 0
    listing = capsys.readouterr().out
    for name in BENCH_SPECS:
        assert name in listing
    assert main(["bench", "not-a-fig"]) == 2


def test_sweep_routing_axis_flags(capsys):
    code = main([
        "sweep", "--objective", "timeline", "--systems", "timeline",
        "--specs", "GPT-S", "--world-sizes", "8", "--batches", "1024",
        "--ns", "2", "--strategies", "none",
        "--top-ks", "none", "2", "--dtypes", "fp32",
        "--imbalances", "1.0", "4.0",
        "--quiet", "--json", "-",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4  # {k in None,2} x {skew in 1,4}
    scenarios = [p["scenario"] for p in payload]
    assert {s["top_k"] for s in scenarios} == {None, 2}
    assert all(s["dtype"] == "fp32" for s in scenarios)
    assert {s["imbalance"] for s in scenarios} == {1.0, 4.0}


def test_smoke_grid_exercises_the_routing_workload():
    """The pinned CI grid carries one top_k=2 + skewed-gating scenario,
    and it must price strictly above its uniform k=1 sibling."""
    results = Study.from_spec(SMOKE_SPEC).run()
    routed = [r for r in results if r.scenario.top_k == 2]
    assert len(routed) == 1
    assert routed[0].scenario.imbalance > 1.0
    sibling = next(
        r for r in results
        if r.scenario.top_k is None
        and r.scenario.batch == routed[0].scenario.batch
        and r.scenario.n == routed[0].scenario.n
        and r.scenario.strategy == routed[0].scenario.strategy
    )
    assert routed[0]["makespan"] > sibling["makespan"]


def test_study_spec_file_round_trip(tmp_path, capsys):
    spec = {
        "grids": [
            {"systems": ["timeline"], "specs": ["GPT-S"],
             "world_sizes": [8], "batches": [1024], "ns": [1, 2]},
        ],
        "objective": "timeline",
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "result.json"
    assert main(["study", str(path), "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [p["scenario"]["n"] for p in payload] == [1, 2]


def test_study_flags_override_spec_even_back_to_defaults(tmp_path, monkeypatch):
    """`--backend serial --workers 1` on a process-backend spec must win:
    explicit flags are distinguishable from omitted ones."""
    from repro.api import cli as cli_mod
    from repro.api.study import Study as RealStudy

    spec = {
        "grids": [
            {"systems": ["timeline"], "specs": ["GPT-S"],
             "world_sizes": [8], "batches": [1024], "ns": [1]},
        ],
        "objective": "timeline",
        "backend": "process",
        "workers": 8,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec))

    seen = {}
    original_run = RealStudy.run

    def spying_run(self):
        seen.update(self.describe())
        return original_run(self)

    monkeypatch.setattr(RealStudy, "run", spying_run)
    assert cli_mod.main([
        "study", str(path), "--quiet",
        "--backend", "serial", "--workers", "1",
    ]) == 0
    assert seen["backend"] == "serial"
    assert seen["workers"] == 1
    # And with no flags, the spec's choices stand.
    assert cli_mod.main(["study", str(path), "--quiet"]) == 0
    assert seen["backend"] == "process"
    assert seen["workers"] == 8


def test_study_spec_errors_are_clean_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grids": [{"batch_sizes": [1024]}]}))
    assert main(["study", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'batches'" in err

    assert main(["study", str(tmp_path / "missing.json")]) == 2
    bad.write_text("{not json")
    assert main(["study", str(bad)]) == 2


def test_unknown_backend_is_a_clean_failure(capsys):
    assert main(["sweep", "--smoke", "--backend", "fiber"]) == 2
    assert "unknown backend" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["thread", "asyncio", "vectorized"])
def test_removed_backend_names_are_clean_failures(name, tmp_path, capsys):
    assert main(["sweep", "--smoke", "--backend", name]) == 2
    assert "unknown backend" in capsys.readouterr().err
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"scenarios": [{"system": "timeline"}], "backend": name}
    ))
    assert main(["study", str(spec)]) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main([])


# -- fault tolerance flags ----------------------------------------------------
def _install_smoke_fault(tmp_path, monkeypatch, **fault_kwargs):
    from repro.testing.faults import FAULT_PLAN_ENV, Fault, FaultPlan

    plan = FaultPlan([Fault(**fault_kwargs)], tmp_path / "faults")
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.install())
    return plan


def test_keep_going_exits_3_and_serializes_failures(
    tmp_path, monkeypatch, capsys
):
    _install_smoke_fault(
        tmp_path, monkeypatch, kind="fail",
        match={"batch": 1024, "n": 1, "strategy": "S1"},
    )
    out = tmp_path / "faulty.json"
    code = main(["sweep", "--smoke", "--keep-going", "--json", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "FAILED" in err and "1 of" in err
    payload = json.loads(out.read_text())
    failed = [p for p in payload if not p.get("ok", True)]
    assert len(failed) == 1
    assert failed[0]["scenario"]["strategy"] == "S1"
    assert failed[0]["error"]["cause"] == "FaultInjected"
    # Healthy rows keep the exact pre-resilience JSON shape.
    assert all("ok" not in p for p in payload if p not in failed)


def test_retries_flag_converges_a_flaky_objective(tmp_path, monkeypatch):
    baseline = tmp_path / "baseline.json"
    assert main(["sweep", "--smoke", "--quiet", "--json", str(baseline)]) == 0
    _install_smoke_fault(
        tmp_path, monkeypatch, kind="fail", attempts_below=3,
        match={"batch": 1024, "n": 1, "strategy": "S1"},
    )
    out = tmp_path / "retried.json"
    assert main([
        "sweep", "--smoke", "--quiet", "--retries", "2", "--json", str(out),
    ]) == 0
    assert out.read_text() == baseline.read_text()  # byte-identical recovery


def test_keep_going_without_failures_exits_0(tmp_path):
    assert main(["sweep", "--smoke", "--quiet", "--keep-going"]) == 0


def test_negative_retries_is_a_clean_failure(capsys):
    assert main(["sweep", "--smoke", "--quiet", "--retries", "-1"]) == 2
    assert "--retries" in capsys.readouterr().err


def test_resume_flag_needs_a_cache_dir(capsys):
    assert main(["sweep", "--smoke", "--quiet", "--resume"]) == 2
    assert "cache_dir" in capsys.readouterr().err


def test_resume_flag_picks_up_a_failed_run(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    plan = _install_smoke_fault(
        tmp_path, monkeypatch, kind="fail",
        match={"batch": 1024, "n": 1, "strategy": "S1"},
    )
    assert main([
        "sweep", "--smoke", "--quiet", "--keep-going",
        "--cache-dir", str(cache),
    ]) == 3
    plan.uninstall()
    out = tmp_path / "resumed.json"
    assert main([
        "sweep", "--smoke", "--quiet", "--keep-going", "--resume",
        "--cache-dir", str(cache), "--json", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert all(p.get("ok", True) for p in payload)


# -- observability flags -------------------------------------------------------
def test_failures_print_to_stderr_even_when_quiet(
    tmp_path, monkeypatch, capsys
):
    _install_smoke_fault(
        tmp_path, monkeypatch, kind="fail",
        match={"batch": 1024, "n": 1, "strategy": "S1"},
    )
    code = main(["sweep", "--smoke", "--quiet", "--keep-going", "--json", "-"])
    assert code == 3
    captured = capsys.readouterr()
    err = captured.err
    assert "FAILED" in err and "ScenarioError" in err
    assert "1 of" in err and "failed" in err
    json.loads(captured.out)  # stdout stays pure JSON for pipelines


def test_metrics_flag_writes_the_run_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    baseline = tmp_path / "plain.json"
    observed = tmp_path / "observed.json"
    assert main(["sweep", "--smoke", "--quiet", "--json", str(baseline)]) == 0
    assert main([
        "sweep", "--smoke", "--quiet", "--json", str(observed),
        "--metrics", str(report_path),
    ]) == 0
    # Observability never changes the result artifact.
    assert observed.read_text() == baseline.read_text()
    report = json.loads(report_path.read_text())
    assert report["version"] == 1
    assert report["run"]["points"] == len(Study.from_spec(SMOKE_SPEC))
    counters = report["metrics"]["counters"]
    assert counters["sweep.scenarios.computed"] == report["run"]["points"]


def test_metrics_flag_without_path_prints_to_stderr(capsys):
    assert main(["sweep", "--smoke", "--quiet", "--metrics"]) == 0
    err = capsys.readouterr().err
    report = json.loads(err[err.index("{"):])
    assert report["version"] == 1


def test_trace_flag_writes_chrome_trace_json(tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "sweep", "--smoke", "--quiet", "--trace", str(trace_path),
    ]) == 0
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(e.get("cat") == "scenario" for e in events)
    assert all(e["ts"] >= 0 for e in events if e["ph"] != "M")


def test_progress_flag_renders_on_stderr(capsys):
    assert main(["sweep", "--smoke", "--quiet", "--progress"]) == 0
    total = len(Study.from_spec(SMOKE_SPEC))
    assert f"{total}/{total}" in capsys.readouterr().err


def test_faulty_run_with_metrics_and_trace(tmp_path, monkeypatch, capsys):
    """The acceptance scenario: a fault-injected smoke run with
    --metrics --trace shows the retries in the counters and yields a
    loadable Chrome trace with the backoff spans."""
    _install_smoke_fault(
        tmp_path, monkeypatch, kind="fail", attempts_below=3,
        match={"batch": 1024, "n": 1, "strategy": "S1"},
    )
    trace_path = tmp_path / "trace.json"
    assert main([
        "sweep", "--smoke", "--quiet", "--retries", "2",
        "--metrics", "--trace", str(trace_path),
    ]) == 0
    err = capsys.readouterr().err
    report = json.loads(err[err.index("{"):])
    counters = report["metrics"]["counters"]
    assert counters["sweep.retries"] == 2
    assert counters["sweep.faults_injected"] == 2
    assert counters["sweep.attempts.failed"] == 2
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert sum(e.get("cat") == "backoff" for e in events) == 2
    assert sum(e.get("cat") == "fault" for e in events) == 2
