"""Meta-tests: documentation coverage and DESIGN <-> benchmark consistency."""

from __future__ import annotations

import ast
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
    "checkpoint_op",
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
