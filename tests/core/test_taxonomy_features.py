"""Tests for the taxonomy (Figure 1) and the feature matrix (Table 1)."""

from __future__ import annotations

import pytest

import repro.mechanisms  # noqa: F401 -- populates the registry
from repro.core import registry
from repro.core.features import (
    Features,
    Initiation,
    PAPER_TABLE1,
    table1_row,
)
from repro.core.taxonomy import (
    Agent,
    Context,
    TaxonomyPosition,
    render_figure1,
)
from repro.storage.backends import StorageKind


class TestTaxonomy:
    def test_invalid_agent_for_context_rejected(self):
        with pytest.raises(ValueError):
            TaxonomyPosition(context=Context.USER_LEVEL, agent=Agent.OS_KERNEL_THREAD)
        with pytest.raises(ValueError):
            TaxonomyPosition(context=Context.SYSTEM_LEVEL, agent=Agent.LD_PRELOAD)

    def test_subsystem_derivation(self):
        p = TaxonomyPosition(context=Context.SYSTEM_LEVEL, agent=Agent.OS_KERNEL_THREAD)
        assert p.subsystem == "operating system"
        p = TaxonomyPosition(context=Context.SYSTEM_LEVEL, agent=Agent.HW_CACHE)
        assert p.subsystem == "hardware"
        p = TaxonomyPosition(context=Context.USER_LEVEL, agent=Agent.LD_PRELOAD)
        assert p.subsystem == "runtime"

    def test_render_contains_all_registered_names(self):
        fig = render_figure1(registry.positions())
        for name in registry.names():
            assert name in fig, f"{name} missing from Figure 1"

    def test_render_tree_structure(self):
        fig = render_figure1(registry.positions())
        assert "user-level" in fig and "system-level" in fig
        assert "operating system" in fig and "hardware" in fig
        assert fig.index("user-level") < fig.index("system-level")


class TestRegistry:
    def test_all_table1_mechanisms_registered(self):
        names = set(registry.names())
        for paper_name in PAPER_TABLE1:
            assert paper_name in names, f"Table 1 row {paper_name!r} not implemented"

    def test_lookup_by_name(self):
        cls = registry.get("CRAK")
        assert cls.mech_name == "CRAK"

    def test_unknown_name_raises(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            registry.get("definitely-not-a-mechanism")

    def test_user_and_system_and_hardware_all_present(self):
        contexts = {p.context for _, p in registry.positions()}
        assert contexts == {Context.USER_LEVEL, Context.SYSTEM_LEVEL}
        agents = {p.agent for _, p in registry.positions()}
        assert Agent.HW_CACHE in agents and Agent.HW_DIRECTORY_CONTROLLER in agents


class TestTable1:
    def _row_for(self, name):
        feats = dict(registry.features())
        return table1_row(name, feats[name])

    @pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
    def test_row_matches_paper(self, name):
        """Every implemented mechanism reproduces its Table 1 row exactly."""
        row = self._row_for(name)
        expected = (name,) + PAPER_TABLE1[name]
        assert row == expected

    def test_matrix_builder_shapes(self):
        rows = [table1_row(name, f) for name, f in registry.features()]
        assert all(len(r) == 6 for r in rows)

    def test_storage_label_none(self):
        f = Features(
            incremental=False,
            transparent=True,
            stable_storage=(StorageKind.NONE,),
            initiation=Initiation.USER,
            kernel_module=True,
        )
        assert f.storage_label() == "none"

    def test_storage_label_multi(self):
        f = Features(
            incremental=False,
            transparent=True,
            stable_storage=(StorageKind.LOCAL, StorageKind.REMOTE),
            initiation=Initiation.USER,
            kernel_module=True,
        )
        assert f.storage_label() == "local,remote"
