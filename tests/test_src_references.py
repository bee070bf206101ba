"""Every function in ``src/`` is one the program uses, or says why not.

An AST scan collects every name that ``src/``, ``benchmarks/``,
``perfbench/``, ``examples/`` and the CI workflow reference: names,
attributes, imported names, and the words of string constants other
than docstrings (``perfbench/perf_trace.py`` patches methods by their
names).  A function or method defined under ``src/`` whose name none of
them references is code only the tests run.  It fails this test unless
:data:`ALLOWED` names it with its reason.  Deleting a method makes its
callees unreferenced too, so a dead chain cannot stay behind.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "benchmarks", "perfbench", "examples")
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

REFERENCE = "reference helper a test pins a fast path to"
PUBLIC = "documented public API (README)"
TRAINING = "training-half accessor"
ALLOCATOR = "allocator accessor"

#: Unreferenced functions that stay, keyed ``module:qualified.name``.
ALLOWED = {
    "repro.api.study:Study.describe": PUBLIC,
    "repro.api.study:Study.limit_memo": PUBLIC,
    "repro.perfmodel.evalcache:Evaluator.cache_info": PUBLIC,
    "repro.comm.cost:NcclCostModel.alltoall_time": REFERENCE,
    "repro.comm.cost:NcclCostModel.decomposed_alltoall_time": REFERENCE,
    "repro.hardware.device:DeviceSpec.memcpy_time": REFERENCE,
    "repro.comm.group:ProcessGroup.rank_rng": TRAINING,
    "repro.core.dispatch:DispatchPlan.keep_fraction": TRAINING,
    "repro.core.experts:ExpertFFN.flops_per_token": TRAINING,
    "repro.core.experts:ExpertFFN.num_params": TRAINING,
    "repro.core.gating:TopKGate.num_params": TRAINING,
    "repro.core.moe_layer:MoELayer.num_params": TRAINING,
    "repro.tensor.tensor:Tensor.detach": TRAINING,
    "repro.train.optimizer:Optimizer.model_state_elems": TRAINING,
    "repro.train.trainer:Trainer.train": TRAINING,
    "repro.sim.memory_allocator:CachingAllocator.allocated_bytes": ALLOCATOR,
    "repro.sim.memory_allocator:CachingAllocator.num_live_blocks": ALLOCATOR,
    "repro.sim.memory_allocator:CachingAllocator.peak_allocated_bytes": ALLOCATOR,
    "repro.sim.memory_allocator:CachingAllocator.reserved_bytes": ALLOCATOR,
    "repro.sim.memory_allocator:CachingAllocator.reset_peaks": ALLOCATOR,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants: prose, not references."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _names_in(tree: ast.AST) -> set[str]:
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(WORD.findall(node.value))
    return names


def _definitions(tree: ast.AST, module: str):
    """``(name, "module:qualified.name")`` of every function and method."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, _FUNCTIONS):
                yield child.name, f"{module}:{prefix}{child.name}"
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


@functools.lru_cache(maxsize=1)
def unreferenced() -> frozenset[str]:
    """Qualified names of the ``src/`` functions the program never names."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in PROGRAM_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    used = set(WORD.findall(WORKFLOW.read_text()))
    for tree in trees.values():
        used |= _names_in(tree)
    src = ROOT / "src"
    found = set()
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for name, qualified in _definitions(tree, module):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in used:
                found.add(qualified)
    return frozenset(found)


def test_src_functions_are_referenced_or_allowed():
    unexplained = sorted(unreferenced() - ALLOWED.keys())
    assert not unexplained, (
        "functions in src/ that only tests reach; delete them, move them "
        f"into tests/, or add them to ALLOWED with a reason: {unexplained}"
    )


def test_allowlist_names_only_unreferenced_functions():
    stale = sorted(ALLOWED.keys() - unreferenced())
    assert not stale, f"ALLOWED entries now referenced or gone: {stale}"
