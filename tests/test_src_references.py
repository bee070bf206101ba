"""Every class and function in ``src/`` is one the program uses, or says
why not.

An AST scan collects every name that ``src/``, ``benchmarks/``,
``perfbench/``, ``examples/`` and the CI workflow reference.  A class or
function defined under ``src/`` that none of them references is code
only the tests run.  It fails this test unless :data:`ALLOWED` names it
with its reason.  Deleting a definition makes its callees unreferenced
too, so a dead chain cannot stay behind.  What counts as a reference:

* a name, an attribute or an imported name, except that a ``src/``
  re-export module importing a name does not use it: a package
  ``__init__`` (its ``__all__`` and ``lazy_exports`` tables are
  strings, see below), or a module whose top level holds only a
  docstring, imports and ``__all__``, such as
  ``repro.tensor.functional``;
* for a method, only an attribute: a bare local of the same name does
  not reach it;
* the words of string constants other than docstrings, outside
  ``src/`` only (``perfbench/perf_trace.py`` patches methods by their
  names; inside ``src/`` strings are messages and table keys).

The scan matches names, not types, so a definition named like a
builtin, ndarray, file, thread or socket method (``copy``, ``astype``,
``clear``, ``close``) counts as used through any attribute of that
name: ``src/`` calls ``.copy()`` on arrays, which would hide an
uncalled ``Tensor.copy``.  Such a method is checked by hand.
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
    "repro.api.study:Study.describe": PUBLIC,
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


def _reexports_only(tree: ast.Module) -> bool:
    """Whether a module's top level holds only a docstring, imports and
    an ``__all__`` assignment: a facade that re-exports names."""
    docstrings = _docstrings(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and id(node.value) in docstrings:
            continue
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["__all__"]:
            continue
        return False
    return True


def _references(tree: ast.AST, *, in_src: bool, reexports: bool):
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
        elif isinstance(node, ast.alias) and not reexports:
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
            tree,
            in_src=in_src,
            reexports=in_src
            and (path.name == "__init__.py" or _reexports_only(tree)),
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

    def test_a_reexport_module_is_not_a_use(self, tmp_path):
        """A module of only a docstring, imports and ``__all__`` (like
        ``repro.tensor.functional``) re-exports; one with any other
        statement uses what it imports."""
        found = scan_tree(tmp_path, {
            "src/pkg/functional.py": '''
                """Functional namespace."""
                from __future__ import annotations
                from pkg.ops import softmax, log_softmax
                __all__ = ["softmax", "log_softmax"]
            ''',
            "src/pkg/ops.py": "def softmax(a): ...\ndef log_softmax(a): ...\n"
                              "def relu(a): ...\n",
            "src/pkg/model.py": """
                from pkg.ops import relu
                ACTIVATION = relu
            """,
            "examples/run.py": "import pkg.functional as F\nF.softmax(1)\n",
        })
        assert found == {"pkg.ops:log_softmax"}

    def test_a_module_with_its_own_definitions_uses_what_it_imports(
        self, tmp_path
    ):
        found = scan_tree(tmp_path, {
            "src/pkg/helpers.py": '''
                """Helpers."""
                from pkg.ops import softmax
                __all__ = ["softmax", "scale"]
                def scale(a): ...
            ''',
            "src/pkg/ops.py": "def softmax(a): ...\n",
            "examples/run.py": "from pkg.helpers import scale\nscale(1)\n",
        })
        assert found == set()

    def test_a_facade_outside_src_uses_what_it_imports(self, tmp_path):
        found = scan_tree(tmp_path, {
            "src/pkg/ops.py": "def softmax(a): ...\n",
            "benchmarks/facade.py": '''
                """Benchmark imports."""
                from pkg.ops import softmax
            ''',
        })
        assert found == set()

    def test_a_builtin_named_method_counts_through_any_attribute(
        self, tmp_path
    ):
        """The documented limit: ``data.copy()`` on an array also counts
        as a use of an uncalled ``Tensor.copy``."""
        found = scan_tree(tmp_path, {
            "src/pkg/tensor.py": """
                class Tensor:
                    def copy(self): ...
                    def detach(self): ...

                def clone(data):
                    return data.copy()
            """,
            "examples/run.py": "from pkg.tensor import Tensor, clone\n"
                               "clone(Tensor())\n",
        })
        assert found == {"pkg.tensor:Tensor.detach"}

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
