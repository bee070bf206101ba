"""Every class and function in ``src/`` is one the program uses, or says
why not.

An AST scan collects every name that ``src/``, ``benchmarks/``,
``perfbench/``, ``examples/`` and the CI workflow reference.  A class or
function defined under ``src/`` that none of them references is code
only the tests run.  It fails this test unless :data:`ALLOWED` names it
with its reason.  Deleting a definition makes its callees unreferenced
too, so a dead chain cannot stay behind.  What counts as a reference:

* a name, an attribute or an imported name, except that a ``src/``
  package ``__init__`` re-exporting a name does not use it (its
  ``__all__`` and ``lazy_exports`` tables are strings, see below);
* for a method, only an attribute: a bare local of the same name does
  not reach it;
* the words of string constants other than docstrings, outside
  ``src/`` only (``perfbench/perf_trace.py`` patches methods by their
  names; inside ``src/`` strings are messages and table keys).
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "benchmarks", "perfbench", "examples")
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

REFERENCE = "reference helper a test pins program code to"
PUBLIC = "documented public API (README)"
PAPER = "paper equation as written"
TRAINING = "training-half accessor"
ALLOCATOR = "allocator accessor"

#: Unreferenced definitions that stay, keyed ``module:qualified.name``.
ALLOWED = {
    "repro.api.backends:temporary_backend": PUBLIC,
    "repro.api.backends:unregister_backend": PUBLIC,
    "repro.api.study:Study.describe": PUBLIC,
    "repro.api.study:Study.limit_memo": PUBLIC,
    "repro.perfmodel.evalcache:Evaluator.cache_info": PUBLIC,
    "repro.testing.faults:FaultPlan.active": PUBLIC,
    "repro.comm.cost:NcclCostModel.alltoall_time": REFERENCE,
    "repro.comm.cost:NcclCostModel.decomposed_alltoall_time": REFERENCE,
    "repro.hardware.device:DeviceSpec.gemm_time": REFERENCE,
    "repro.hardware.device:DeviceSpec.memcpy_time": REFERENCE,
    "repro.tensor.gradcheck:gradcheck": REFERENCE,
    "repro.memory.footprint:memory_saving_ratio": PAPER,
    "repro.core.dispatch:DispatchPlan.keep_fraction": TRAINING,
    "repro.core.experts:ExpertFFN.flops_per_token": TRAINING,
    "repro.core.experts:ExpertFFN.num_params": TRAINING,
    "repro.core.gating:TopKGate.num_params": TRAINING,
    "repro.core.moe_layer:MoELayer.num_params": TRAINING,
    "repro.tensor.tensor:Tensor.detach": TRAINING,
    "repro.tensor.tensor:no_grad": TRAINING,
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


def _references(tree: ast.AST, *, in_src: bool, package_init: bool):
    """``(names, attributes)`` a module references.

    ``names`` holds bare names, imported names and, outside ``src/``,
    the words of non-docstring strings; ``attributes`` holds what
    follows a dot, plus those same string words.
    """
    docstrings = _docstrings(tree)
    names, attributes, words = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias) and not package_init:
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            not in_src
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            words.update(WORD.findall(node.value))
    return names | words, attributes | words


def _definitions(tree: ast.AST, module: str):
    """``(name, "module:qualified.name", is_method)`` of every class,
    function and method."""

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *_FUNCTIONS)):
                is_method = in_class and isinstance(child, _FUNCTIONS)
                yield child.name, f"{module}:{prefix}{child.name}", is_method
                yield from walk(
                    child,
                    f"{prefix}{child.name}.",
                    isinstance(child, ast.ClassDef),
                )
            else:
                yield from walk(child, prefix, in_class)

    return walk(tree, "", False)


def scan(root: Path, workflow: Path | None = None) -> frozenset[str]:
    """Qualified names of the definitions under ``root/src`` that no
    program directory under ``root`` (or ``workflow``) references."""
    src = root / "src"
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in PROGRAM_DIRS
        for path in sorted((root / directory).rglob("*.py"))
    }
    names = set(WORD.findall(workflow.read_text())) if workflow else set()
    attributes = set(names)
    for path, tree in trees.items():
        in_src = path.is_relative_to(src)
        found_names, found_attributes = _references(
            tree, in_src=in_src, package_init=in_src and path.name == "__init__.py"
        )
        names |= found_names
        attributes |= found_attributes
    found = set()
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for name, qualified, is_method in _definitions(tree, module):
            dunder = name.startswith("__") and name.endswith("__")
            used = attributes if is_method else names | attributes
            if not dunder and name not in used:
                found.add(qualified)
    return frozenset(found)


@functools.lru_cache(maxsize=1)
def unreferenced() -> frozenset[str]:
    """Qualified names of the ``src/`` definitions the program never names."""
    return scan(ROOT, WORKFLOW)


def test_src_functions_are_referenced_or_allowed():
    unexplained = sorted(unreferenced() - ALLOWED.keys())
    assert not unexplained, (
        "definitions in src/ that only tests reach; delete them, move them "
        f"into tests/, or add them to ALLOWED with a reason: {unexplained}"
    )


def test_allowlist_names_only_unreferenced_functions():
    stale = sorted(ALLOWED.keys() - unreferenced())
    assert not stale, f"ALLOWED entries now referenced or gone: {stale}"


def scan_tree(root: Path, files: dict[str, str]) -> frozenset[str]:
    """:func:`scan` over a synthetic repository of ``files``."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return scan(root)


class TestScanRules:
    def test_a_package_reexport_is_not_a_use(self, tmp_path):
        found = scan_tree(tmp_path, {
            "src/pkg/__init__.py": """
                from pkg.mod import eager
                from pkg.lazy import lazy_exports
                __all__ = ["eager", "deferred"]
                __getattr__, __dir__ = lazy_exports(
                    __name__, {"deferred": "pkg.mod:deferred"}
                )
            """,
            "src/pkg/lazy.py": "def lazy_exports(package, targets): ...\n",
            "src/pkg/mod.py": "def eager(): ...\ndef deferred(): ...\n",
        })
        assert found == {"pkg.mod:eager", "pkg.mod:deferred"}

    def test_a_bare_local_does_not_reach_a_method(self, tmp_path):
        found = scan_tree(tmp_path, {
            "src/pkg/mod.py": """
                class Device:
                    def gemm_time(self): ...
                    def copy_time(self): ...

                def price(device):
                    gemm_time = device.copy_time()
                    return gemm_time
            """,
            "examples/run.py": "from pkg.mod import Device, price\n"
                               "price(Device())\n",
        })
        assert found == {"pkg.mod:Device.gemm_time"}

    def test_an_unused_class_is_named(self, tmp_path):
        found = scan_tree(tmp_path, {
            "src/pkg/mod.py": """
                class Unused:
                    def run(self): ...

                def used(): ...
            """,
            "examples/run.py": "from pkg.mod import used\nused().run()\n",
        })
        assert found == {"pkg.mod:Unused"}

    def test_only_strings_outside_src_name_definitions(self, tmp_path):
        """perfbench patches a method by its name in a string; inside
        ``src/`` a word in an error message is not a use."""
        found = scan_tree(tmp_path, {
            "src/pkg/mod.py": """
                class Engine:
                    def run_compiled(self): ...

                def reduce_scatter(x): ...

                def check(x):
                    raise ValueError("reduce_scatter needs leading dim")
            """,
            "perfbench/trace.py": """
                from pkg.mod import Engine, check
                TARGETS = ("Engine.run_compiled",)
                check(Engine)
            """,
        })
        assert found == {"pkg.mod:reduce_scatter"}
