"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.tensor import Tensor


def make_layer(**overrides) -> repro.MoELayer:
    """Small, fast MoE layer used across integration tests."""
    kwargs = dict(
        d_model=16,
        d_hidden=32,
        num_experts=8,
        top_k=1,
        world_size=4,
        pipeline=True,
        memory_reuse=False,
        num_partitions=2,
        activation="gelu",
        seed=11,
    )
    kwargs.update(overrides)
    return repro.MoELayer(**kwargs)


def make_inputs(layer: repro.MoELayer, batch: int = 12, seed: int = 5,
                requires_grad: bool = True) -> list[Tensor]:
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal((batch, layer.spec.d_model)),
               requires_grad=requires_grad)
        for _ in range(layer.world_size)
    ]


def run_python(
    *args: str, input: str | None = None, **env: str
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ``src`` importable,
    ``env`` added to its environment and ``input`` on its stdin."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, **env}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        input=input,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def on_thread_pool(evaluate, scenarios, workers: int) -> list:
    """Evaluate scenarios on a thread pool sharing this process's
    context pool — the way a ``repro serve`` worker executes its shards
    — as :class:`~repro.sweep.runner.SweepResult` rows, cache stats
    split out of the values as the runner does."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.sweep.runner import CACHE_STATS_KEY, SweepResult

    scenarios = list(scenarios)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        computed = list(pool.map(evaluate, scenarios))
    return [
        SweepResult(sc, values, cache_stats=values.pop(CACHE_STATS_KEY, None))
        for sc, values in zip(scenarios, computed)
    ]


@pytest.fixture
def loopback_server(monkeypatch):
    """One in-process ``repro serve`` worker, set as the ``remote``
    backend's endpoint: its thread pool evaluates shards concurrently
    against this process's context pool."""
    from repro.distrib.backend import ENDPOINTS_ENV
    from repro.distrib.server import StudyServer

    with StudyServer() as server:
        monkeypatch.setenv(ENDPOINTS_ENV, f"{server.host}:{server.port}")
        yield server


def scalar_loss(outputs, aux=None, aux_weight=0.01):
    loss = outputs[0].sum()
    for o in outputs[1:]:
        loss = loss + o.sum()
    if aux is not None:
        loss = loss + aux * aux_weight
    return loss


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
