"""Export hygiene: the public surfaces import cleanly, the supported
aliases warn never, and importing the facade stays lean."""

from __future__ import annotations

import importlib
import sys
import textwrap
import warnings

import pytest

from tests.conftest import run_python


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.api",
        "repro.sweep",
        "repro.pipeline",
        "repro.memory",
        "repro.comm",
        "repro.utils",
    ],
)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{module_name}.{name}"
    # __dir__ advertises at least the public surface.
    assert set(module.__all__) <= set(dir(module))


def test_star_import_of_the_facade():
    namespace: dict = {}
    exec("from repro.api import *", namespace)
    for name in ("Study", "ResultSet", "ScenarioGrid", "get_backend"):
        assert name in namespace


def test_repro_api_attribute_is_lazy_but_real():
    import repro

    assert repro.api.Study.__name__ == "Study"
    with pytest.raises(AttributeError, match="no attribute"):
        repro.nonexistent_attribute


def test_sweep_aliases_resolve_without_warning():
    import repro.api.result as result_mod

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        sweep = importlib.import_module("repro.sweep")
        assert sweep.pareto_front is result_mod.pareto_front
        assert sweep.sweep_table is result_mod.sweep_table
        assert sweep.group_by is result_mod.group_by
    with pytest.raises(AttributeError, match="repro.sweep"):
        sweep.not_a_thing


def test_analysis_shim_is_gone():
    sys.modules.pop("repro.sweep.analysis", None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sweep.analysis")


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    """The README's first ``repro.api`` example runs as printed."""
    import re
    from pathlib import Path

    import repro

    readme = Path(repro.__file__).parents[2] / "README.md"
    section = readme.read_text().split("## Public API (`repro.api`)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(readme), "exec"), namespace)
    results = namespace["results"]
    assert len(results) == len(namespace["grid"])
    assert set(namespace["by_world"]) == {16, 64}
    assert namespace["front"]
    assert len(list((tmp_path / ".sweep_cache").glob("*.json"))) >= len(results)
    assert results.to_json() in capsys.readouterr().out


def test_python_dash_m_repro_wires_the_cli():
    proc = run_python("-m", "repro", "--help")
    assert proc.returncode == 0, proc.stderr
    for command in ("sweep", "bench", "study"):
        assert command in proc.stdout


def test_importing_the_facade_leaves_asyncio_unloaded():
    proc = run_python(
        "-c", "import sys, repro.api; print('asyncio' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scalar_studies_leave_numpy_and_multiprocessing_unloaded():
    """Scalar pricing never touches an array or a process pool, so a
    serial system or timeline study loads neither numpy nor
    multiprocessing; the numpy layer still resolves on first access."""
    code = textwrap.dedent("""
        import sys
        import repro, repro.api
        from repro.api import ScenarioGrid, Study
        systems = ScenarioGrid(systems=("fastmoe", "fastermoe", "pipemoe", "mpipemoe"))
        timeline = ScenarioGrid(
            systems=("timeline",), batches=(1024, 2048, 4096, 8192, 16384), ns=(1, 2)
        )
        for grid, objective in ((systems, "system"), (timeline, "timeline")):
            results = Study(grid, objective=objective).backend("serial").run()
            assert len(results) == len(grid) and all(r.ok for r in results)
        print(sorted({"numpy", "multiprocessing"} & set(sys.modules)))
        print(repro.MoELayer.__name__, "numpy" in sys.modules)
    """)
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "MoELayer True"]


def test_vectorize_true_imports_numpy_when_the_study_is_built():
    """The whole-grid pass needs numpy; ``vectorize=True`` imports it at
    build, so its import stays out of the timed ``run()``."""
    code = textwrap.dedent("""
        import sys
        from repro.api import ScenarioGrid, Study
        from repro.sweep.runner import SweepRunner, evaluate_timeline
        grid = ScenarioGrid(systems=("timeline",), ns=(1, 2))
        Study(grid, objective="timeline").vectorize(None).vectorize(False)
        SweepRunner(evaluate_timeline, vectorize=False)
        print("numpy" in sys.modules)
        Study(grid, objective="timeline").vectorize(True)
        print("numpy" in sys.modules)
    """)
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
    runner = run_python(
        "-c",
        "import sys; from repro.sweep.runner import SweepRunner, evaluate_timeline; "
        "SweepRunner(evaluate_timeline, vectorize=True); print('numpy' in sys.modules)",
    )
    assert runner.returncode == 0, runner.stderr
    assert runner.stdout.strip() == "True"


@pytest.mark.parametrize(
    "module_name", ["repro.pipeline.executor", "repro.core.moe_layer", "repro.train"]
)
def test_the_numpy_layer_imports_first_in_a_fresh_interpreter(module_name):
    """``core.moe_layer`` imports the executor, whose annotations name
    ``repro.core`` types; whichever a process imports first must not
    meet the other half-initialized."""
    proc = run_python("-c", f"import {module_name}")
    assert proc.returncode == 0, proc.stderr
