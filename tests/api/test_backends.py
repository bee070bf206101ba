"""Execution-backend registry and cross-path equivalence.

The acceptance contract of the public API: the same study run on
``serial``, on ``process`` and through the whole-grid pass
(``vectorize=True`` in place of either in-line backend) yields
byte-identical ResultSet JSON and byte-identical cache files for a
>= 50-scenario grid.
"""

from __future__ import annotations

import pytest

from repro.api import Study
from repro.api.backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
    WorkersLost,
    available_backends,
    get_backend,
    register_backend,
    temporary_backend,
    unregister_backend,
)
from repro.obs import ObsSession, bus
from repro.sweep import Scenario, ScenarioGrid, SweepRunner, shared_context
from repro.sweep.runner import pop_reserved, scenario_hetero

BACKENDS = ("serial", "process")

#: Every local execution path: each backend's per-scenario map, and the
#: whole-grid pass in place of each in-line backend.
RUN_PATHS = {
    "serial": {"backend": "serial", "workers": 2},  # serial ignores workers
    "process": {"backend": "process", "workers": 2},
    "vectorize-serial": {"backend": "serial", "vectorize": True},
    "vectorize-process": {"backend": "process", "workers": 1, "vectorize": True},
}

#: The acceptance grid: 4 batches x 3 granularities x 5 strategies = 60
#: timeline points, all priced through the memoized makespan-only path.
EQUIVALENCE_GRID = ScenarioGrid(
    systems=("timeline",),
    specs=("GPT-S",),
    world_sizes=(8,),
    batches=(1024, 2048, 4096, 8192),
    ns=(1, 2, 4),
    strategies=("none", "S1", "S2", "S3", "S4"),
)


# Module-level so the process backend can pickle them by qualified name.
def square(x: int) -> int:
    return x * x


def pure_makespan(scenario: Scenario) -> dict:
    """Deterministic real-pricing evaluator that reports no cache stats,
    so its on-disk cache files must be byte-identical across backends
    and worker layouts."""
    from repro.config import get_preset

    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    with ctx.sweep_lock:
        makespan = ctx.evaluator.makespan(
            get_preset(scenario.spec), scenario.batch, scenario.n,
            scenario.strategy or "none",
        )
    return {"makespan": makespan}


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_builtins_are_exactly_the_three(self):
        assert available_backends() == ("process", "remote", "serial")

    @pytest.mark.parametrize("name", ["thread", "asyncio", "vectorized"])
    def test_removed_backend_names_fail_at_build_time(self, name):
        """No alias survives: every way of naming a removed backend hits
        the registry's unknown-name error before any point runs."""
        listing = "registered backends: " + ", ".join(available_backends())
        with pytest.raises(ValueError, match=listing):
            SweepRunner(pure_makespan, backend=name)
        with pytest.raises(ValueError, match=listing):
            Study(EQUIVALENCE_GRID).backend(name)
        with pytest.raises(ValueError, match=listing):
            Study.from_spec(
                {"scenarios": [{"system": "timeline"}], "backend": name}
            )

    def test_get_backend_by_name_and_instance(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)
        instance = ProcessBackend()
        assert get_backend(instance) is instance

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(ValueError, match="unknown backend 'fiber'"):
            get_backend("fiber")
        with pytest.raises(ValueError, match="serial"):
            get_backend("fiber")

    def test_non_string_non_backend_rejected(self):
        with pytest.raises(TypeError, match="Backend"):
            get_backend(42)

    def test_third_party_registration_and_overwrite(self):
        class EchoBackend(Backend):
            name = "echo-test"

            def imap(self, fn, items, *, workers=1):
                return ((i, fn(item)) for i, item in enumerate(items))

        register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in available_backends()
            assert isinstance(get_backend("echo-test"), EchoBackend)
            with pytest.raises(ValueError, match="already registered"):
                register_backend("echo-test", EchoBackend)
            register_backend("echo-test", EchoBackend, overwrite=True)
        finally:
            from repro.api import backends as mod

            mod._REGISTRY.pop("echo-test", None)

    def test_register_as_decorator(self):
        from repro.api import backends as mod

        @register_backend("decorated-test")
        class DecoratedBackend(SerialBackend):
            name = "decorated-test"

        try:
            assert isinstance(get_backend("decorated-test"), DecoratedBackend)
        finally:
            mod._REGISTRY.pop("decorated-test", None)

    def test_unregister_backend(self):
        register_backend("ephemeral-test", SerialBackend)
        assert "ephemeral-test" in available_backends()
        unregister_backend("ephemeral-test")
        assert "ephemeral-test" not in available_backends()

    def test_unregister_unknown_lists_registered(self):
        with pytest.raises(ValueError, match="not registered"):
            unregister_backend("never-was")

    def test_temporary_backend_registers_then_removes(self):
        with temporary_backend("scoped-test", SerialBackend):
            assert "scoped-test" in available_backends()
        assert "scoped-test" not in available_backends()

    def test_temporary_backend_restores_the_shadowed_factory(self):
        with temporary_backend("serial", ProcessBackend, overwrite=True):
            assert isinstance(get_backend("serial"), ProcessBackend)
        assert isinstance(get_backend("serial"), SerialBackend)

    def test_temporary_backend_cleans_up_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with temporary_backend("scoped-test", SerialBackend):
                raise RuntimeError("boom")
        assert "scoped-test" not in available_backends()


class TestBackendMap:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_imap_yields_every_index_exactly_once(self, name, workers):
        items = list(range(7))
        landed = list(get_backend(name).imap(square, items, workers=workers))
        assert sorted(i for i, _ in landed) == list(range(len(items)))
        assert [r for _, r in sorted(landed)] == [square(x) for x in items]

    def test_remote_imap_yields_every_index_exactly_once(self, loopback_server):
        """Remote results come back with the reserved keys reattached;
        without them, each is the objective's own value."""
        scenarios = list(EQUIVALENCE_GRID)[:6]
        landed = list(
            get_backend("remote").imap(square_scenario, scenarios, workers=2)
        )
        assert sorted(i for i, _ in landed) == list(range(len(scenarios)))
        values = [v for _, v in sorted(landed, key=lambda pair: pair[0])]
        for v in values:
            pop_reserved(v)
        assert values == [square_scenario(sc) for sc in scenarios]

    def test_an_imap_only_backend_runs_a_study_and_ticks_per_point(self):
        """A third-party backend implements imap alone, may land results
        in any order, and still gets the runner's one backend.item tick
        per point and the serial run's bytes."""

        class Reversed(Backend):
            name = "reversed-test"

            def imap(self, fn, items, *, workers=1):
                items = list(items)
                for i in reversed(range(len(items))):
                    yield i, fn(items[i])

        ticks = []

        def hook(event, fields):
            if event == "backend.item":
                ticks.append(fields["backend"])

        study = Study(EQUIVALENCE_GRID, objective="timeline").vectorize(False)
        with temporary_backend("reversed-test", Reversed):
            bus.subscribe(hook)
            try:
                results = study.backend("reversed-test").run()
            finally:
                bus.unsubscribe(hook)
        assert ticks == ["reversed-test"] * len(EQUIVALENCE_GRID)
        assert results.to_json() == study.run().to_json()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_items(self, name):
        assert list(get_backend(name).imap(square, [], workers=2)) == []

    @pytest.mark.parametrize("name", available_backends())
    def test_sync_backends_reject_async_evaluators(self, name):
        async def probe(x):
            return x

        with pytest.raises(TypeError, match="coroutine function"):
            list(get_backend(name).imap(probe, [1], workers=2))

    @pytest.mark.parametrize("name", available_backends())
    def test_runner_rejects_async_objectives_when_built(self, name):
        """The whole-grid path never reaches ``Backend.imap``, so the
        check runs when the runner is built, for every backend."""

        async def probe(scenario):
            return {}

        with pytest.raises(TypeError, match="coroutine function"):
            SweepRunner(probe, backend=name)
        with pytest.raises(TypeError, match="coroutine function"):
            Study(EQUIVALENCE_GRID).objective(probe).backend(name).run()


class TestBackendEquivalence:
    """The PR's acceptance criterion, pinned."""

    def test_resultset_json_byte_identical_across_backends(self):
        assert len(EQUIVALENCE_GRID) >= 50
        payloads = {
            name: Study(EQUIVALENCE_GRID, objective="timeline", **options)
            .run()
            .to_json()
            for name, options in RUN_PATHS.items()
        }
        reference = payloads["serial"]
        assert "makespan" in reference
        for name in RUN_PATHS:
            assert payloads[name] == reference, name

    def test_values_identical_across_backends(self):
        runs = {
            name: Study(EQUIVALENCE_GRID, objective="timeline", **options).run()
            for name, options in RUN_PATHS.items()
        }
        reference = runs["serial"]
        for name, results in runs.items():
            assert [r.scenario for r in results] == [
                r.scenario for r in reference
            ], name
            assert [r.values for r in results] == [
                r.values for r in reference
            ], name
            # The vectorize paths really took the whole-grid pass.
            assert all(
                ("batch_group" in r.cache_stats) == ("vectorize" in name)
                for r in results
            ), name

    def test_cache_files_byte_identical_across_backends(self, tmp_path):
        contents = {}
        for name, options in RUN_PATHS.items():
            cache = tmp_path / name
            Study(
                EQUIVALENCE_GRID, objective=pure_makespan, cache_dir=cache,
                **options,
            ).run()
            contents[name] = {
                p.name: p.read_bytes() for p in sorted(cache.glob("*.json"))
            }
            assert len(contents[name]) == len(EQUIVALENCE_GRID), name
        reference = contents["serial"]
        for name in RUN_PATHS:
            assert contents[name] == reference, name

    def test_sweeprunner_accepts_backend_instances(self):
        runner = SweepRunner(pure_makespan, backend=SerialBackend())
        assert runner.backend == "serial"
        (result,) = runner.run(
            [Scenario(system="timeline", spec="GPT-S", world_size=8,
                      batch=1024, n=2)]
        )
        assert result["makespan"] > 0

    @pytest.mark.parametrize("knobs, bare", [
        ({}, True),
        ({"evaluator_max_entries": 4}, False),
        ({"retry": 2}, False),
        ({"on_error": "keep"}, False),
        ({"obs": ObsSession()}, False),
    ])
    def test_backends_receive_the_bare_objective_by_default(self, knobs, bare):
        """Only a memo bound, a retry policy, keep-going or observation
        wrap the objective; a plain run hands backends the function."""
        received = []

        class Spy(SerialBackend):
            def imap(self, fn, items, *, workers=1):
                received.append(fn)
                return super().imap(fn, items, workers=workers)

        SweepRunner(square_scenario, backend=Spy(), **knobs).run(
            [Scenario(system="timeline", batch=1024, n=2)]
        )
        (fn,) = received
        assert (fn is square_scenario) is bare


def square_scenario(scenario: Scenario) -> dict:
    return {"square": scenario.batch ** 2}


# -- worker-death absorption and exception routing ----------------------------
def kill_once(item):
    """Dies (SIGKILL) the first time it sees the victim value; the
    attempt counter is an appended-byte file, durable across the kill."""
    import os
    import signal

    value, counter, victim = item
    if value == victim:
        with open(counter, "a") as fh:
            fh.write("x")
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.getsize(counter) < 2:
            os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def kill_always(item):
    import os
    import signal

    value, victim = item
    if value == victim:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class TestWorkerDeathAbsorption:
    def test_pool_respawn_retries_only_the_unfinished_shard(self, tmp_path):
        counter = tmp_path / "attempts"
        items = [(i, str(counter), 3) for i in range(6)]
        landed = sorted(ProcessBackend().imap(kill_once, items, workers=2))
        assert landed == [(i, i * 2) for i in range(6)]
        assert counter.read_text() == "xx"  # killed once, retried once

    def test_exhausted_respawns_carry_the_salvaged_results(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        items = [(i, 3) for i in range(6)]
        salvaged = {}
        with pytest.raises(WorkersLost) as info:
            for i, value in ProcessBackend(max_pool_respawns=0).imap(
                kill_always, items, workers=2
            ):
                assert i not in salvaged
                salvaged[i] = value
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert 3 not in salvaged
        assert all(salvaged[i] == items[i][0] * 2 for i in salvaged)

    def test_respawn_budget_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(max_pool_respawns=-1)
