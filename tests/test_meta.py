"""Meta-tests: documentation coverage, DESIGN <-> benchmark consistency
and a census of definitions only tests read."""

from __future__ import annotations

import ast
import collections
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
SRC = REPO / "src" / "repro"


#: Framework methods whose contract is documented on the base class;
#: overrides inherit that documentation.
_DOCUMENTED_IN_BASE = {
    "install",
    "uninstall",
    "on_load",
    "prepare_target",
    "request_checkpoint",
    "setup",
    "iteration",
    "scan_ops",
    "mechanism_for",
    "read",
    "write",
    "ioctl",
    "store",
    "load",
    "size",
    # ShardGroup interface (simkernel/parallel.py documents the
    # contract; backends implement it).
    "status_all",
    "window_all",
    "deliver_all",
    "export_all",
    "close",
}


def _public_defs(tree):
    """Public module-level classes/functions and methods of module-level
    classes.  Nested closures are implementation detail, not API."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            yield node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name.startswith("_"):
                        continue
                    if item.name in _DOCUMENTED_IN_BASE:
                        continue
                    yield item


class TestDocstrings:
    @pytest.mark.parametrize(
        "path",
        sorted(SRC.rglob("*.py")),
        ids=lambda p: str(p.relative_to(SRC)),
    )
    def test_every_public_item_documented(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path}: missing module docstring"
        undocumented = [
            node.name
            for node in _public_defs(tree)
            if not ast.get_docstring(node)
        ]
        assert not undocumented, (
            f"{path.relative_to(REPO)}: public items without docstrings: "
            f"{undocumented}"
        )


#: Definitions and ``self`` attributes of ``src/`` that only tests read,
#: each with the reason it stays.  The list may only shrink, except that
#: a change that tightens the census may add the names it newly finds,
#: each with its reason.  An entry that gains a reader outside tests
#: (or disappears) must be removed.
TEST_ONLY = {
    "checkpoint_job": "LAM/MPI's and the user-level library's coordinated "
    "checkpoint of a parallel job, the paper's mechanism interface",
    "restart_group": "BLCR's restore of a multithreaded image, the paper's "
    "mechanism interface (Table 1's multithreaded column)",
    "resume_system": "Software Suspend's boot-time restore of the whole "
    "system image, the paper's mechanism interface",
    "unfreeze": "Software Suspend's standby wake, the other half of "
    "suspend(power_down=False)",
    "uninstall": "unloading a kernel-module mechanism (Table 1's module "
    "column); static-kernel mechanisms refuse it",
    "enable_timer": "automatic initiation of the user-level libraries "
    "(Table 1's initiation column)",
    "checkpoint_now": "the batch layer's administrator-initiated "
    "checkpoint, the paper's LSF-style user initiation",
    "resume_in_place": "thaws a task parked by SafePreemption, the "
    "paper's safe pre-emption",
    "spawn_group": "spawns the thread group restart_group restores",
    "ThreadedWorkload": "the thread-group fixture behind spawn_group and "
    "restart_group (Table 1's multithreaded column)",
    "recover": "fault injection: brings a failed storage server back, "
    "with or without its disk",
    "set_gauge": "gauges are part of the repro.obs/v1 export the fold "
    "tests cover; no run in src/ sets one",
    "power_loss": "fault injection: a power-down loses the standby image "
    "Software Suspend keeps in RAM",
    "bytes_read": "per-store and per-server read traffic, the ledger the "
    "fan-out and degraded-read tests charge against",
    "total_bytes": "a device's traffic ledger: the write-path tests compare "
    "it between streamed and one-shot writes",
    "total_ops": "the operation count of the same device ledger",
    "prefetch_fallbacks": "restarts that fell back from a prefetch "
    "restore to the serial chain walk",
}


def _docstring_ids(tree):
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            ids.add(id(node.body[0].value))
    return ids


def _all_ids(tree):
    """ids of every node inside an ``__all__`` assignment."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(sub) for sub in ast.walk(node))
    return ids


def _reads(tops):
    """``(names, attributes)`` the Python files under ``tops`` read.

    ``attributes`` counts loaded attributes and the words of every
    string that is not a docstring (``getattr`` and name-resolved
    spans); ``names`` adds identifiers and imported names.  A local
    variable spelled like an attribute is no read of the attribute.

    Not reads: the strings of an ``__all__`` assignment, an import in a
    package ``__init__.py`` (a re-export), and a function or class
    mentioning its own name inside itself (recursion, its own error
    message, a ``-> "Cls"`` annotation).  A class decorated with
    ``@register`` is read: ``core.registry`` reaches it by name."""
    names, attributes = collections.Counter(), collections.Counter()

    def visit(node, own, skip, reexport):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if any(isinstance(d, ast.Name) and d.id == "register"
                   for d in node.decorator_list):
                names[node.name] += 1
            own = own | {node.name}
        if isinstance(node, ast.Name):
            if node.id not in own:
                names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in own:
                attributes[node.attr] += 1
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
            if not reexport and name not in own:
                names[name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            attributes.update(w for w in re.findall(r"[A-Za-z_]\w*", node.value)
                              if w not in own)
        for child in ast.iter_child_nodes(node):
            visit(child, own, skip, reexport)

    for top in tops:
        for path in (REPO / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            skip = _docstring_ids(tree) | _all_ids(tree)
            visit(tree, frozenset(), skip, path.name == "__init__.py")
    return names + attributes, attributes


def _annotation_names(tree):
    """Names a string annotation in ``tree`` mentions (``"Kernel"``,
    ``Optional["Kernel"]``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                expr = ast.parse(sub.value, mode="eval")
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def _unread_imports(tree):
    """Names a module's top-level imports bind and the module never
    reads (``__future__`` aside)."""
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound.update(a.asname or a.name for a in stmt.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read.update(_annotation_names(tree))
    return bound - read


def _src_names():
    """``(definitions, attributes)``: every function and class name
    defined in ``src/`` (dunders aside), and every ``self.<attr>`` that
    ``src/`` assigns."""
    defined, assigned = set(), set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    assigned.add(node.attr)
    return defined, assigned


class TestCensus:
    """Every name ``src/`` defines has a reader outside ``tests/``.

    Names are matched by spelling, not by owner, so a name read on any
    object counts for every definition of it: the census is a floor."""

    #: Where a reader that is not a test may live.
    READERS = ("src", "benchmarks", "examples", "perfbench")

    @pytest.fixture(scope="class")
    def unread(self):
        """Definitions with no name read and attributes with no
        attribute read outside tests."""
        defined, assigned = _src_names()
        names, attributes = _reads(self.READERS)
        return ({n for n in defined if not names[n]}
                | {n for n in assigned if not attributes[n]})

    def test_every_src_name_has_a_reader_outside_tests(self, unread):
        missing = sorted(unread - TEST_ONLY.keys())
        assert not missing, (
            f"defined or assigned in src/ but read only by tests or nowhere: {missing}"
        )

    def test_allowlist_has_no_stale_entry(self, unread):
        stale = sorted(TEST_ONLY.keys() - unread)
        assert not stale, f"TEST_ONLY entries that are read outside tests or gone: {stale}"

    def test_every_src_import_is_read_in_its_module(self):
        unread = {
            str(path.relative_to(SRC)): sorted(names)
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "__init__.py"
            and (names := _unread_imports(ast.parse(path.read_text())))
        }
        assert not unread, f"imports their module never reads: {unread}"


def test_every_all_entry_resolves():
    """Every name a ``repro`` module lists in ``__all__`` exists on it."""
    missing = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        gone = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if gone:
            missing[module.__name__] = gone
    assert not missing, f"__all__ entries with no definition: {missing}"


class TestDesignExperimentIndex:
    def test_every_design_experiment_has_a_bench_file(self):
        design = (REPO / "DESIGN.md").read_text()
        targets = re.findall(r"benchmarks/(test_[a-z0-9_]+\.py)", design)
        assert len(set(targets)) >= 20  # E1..E18 + ablations
        for t in set(targets):
            assert (REPO / "benchmarks" / t).exists(), f"missing bench {t}"

    def test_every_bench_file_is_indexed_in_design(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("test_*.py")):
            assert bench.name in design, (
                f"{bench.name} not referenced in DESIGN.md's experiment index"
            )

    def test_experiments_md_covers_all_experiment_ids(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for i in range(1, 19):
            assert f"## E{i} " in experiments, f"E{i} missing from EXPERIMENTS.md"


class TestTable1SourceOfTruth:
    def test_paper_table_rows_unchanged(self):
        """Guard the transcription: exactly the paper's 12 rows."""
        from repro.core.features import PAPER_TABLE1

        assert len(PAPER_TABLE1) == 12
        assert set(PAPER_TABLE1) == {
            "VMADump", "BPROC", "EPCKPT", "CRAK", "UCLik", "CHPOX",
            "ZAP", "BLCR", "LAM/MPI", "PsncR/C", "Software Suspend",
            "Checkpoint",
        }
