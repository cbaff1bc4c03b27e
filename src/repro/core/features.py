"""Feature vocabulary and the Table-1 feature matrix.

Table 1 of the paper summarizes each surveyed mechanism over five
columns: incremental checkpointing, transparency, stable storage,
initiation, and kernel-module packaging.  Here the columns are typed
(:class:`Features`) and each row is *derived from a live mechanism
object* (:func:`table1_row`), so any drift between the models and the
paper's table shows up as a failing benchmark (E2).

Beyond the paper's five columns, :class:`Features` records the extended
properties the prose discusses (multithread support, MPI support,
migration, resource virtualization, data filtering), used by the other
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from ..storage.backends import StorageKind

__all__ = [
    "Initiation",
    "Features",
    "TABLE1_COLUMNS",
    "table1_row",
    "PAPER_TABLE1",
]


class Initiation(str, Enum):
    """Who triggers checkpoints (Table 1 vocabulary).

    The paper's usage: *automatic* means the application checkpoints
    itself (self-invoked calls / timers wired at build time); *user*
    means an external party (administrator, batch system) triggers it.
    """

    AUTOMATIC = "automatic"
    USER = "user"


@dataclass(frozen=True)
class Features:
    """Feature vector for one mechanism.

    The first five fields are exactly Table 1's columns; the rest encode
    properties the survey text discusses mechanism by mechanism.
    """

    incremental: bool
    transparent: bool
    stable_storage: Tuple[StorageKind, ...]
    initiation: Initiation
    kernel_module: bool
    # -- extended properties from the prose --
    multithreaded: bool = False
    parallel_mpi: bool = False
    migration: bool = False
    virtualization: bool = False
    #: Filters clean/code/library pages out of images (PsncR/C does not).
    data_filtering: bool = True
    #: Requires a launcher/registration phase before checkpoints work.
    requires_registration: bool = False

    def storage_label(self) -> str:
        """Table-1 cell text for the storage column.

        The table's vocabulary is local/remote/none; MEMORY staging
        (Software Suspend's standby mode, hardware epoch logs) is an
        extra capability the table does not enumerate, so it is omitted
        from the label unless it is the only kind.
        """
        visible = [
            k
            for k in self.stable_storage
            if k not in (StorageKind.NONE, StorageKind.MEMORY)
        ]
        if not visible:
            if StorageKind.MEMORY in self.stable_storage:
                return "memory"
            return "none"
        return ",".join(k.value for k in visible)


#: Table 1 column headers, in the paper's order.
TABLE1_COLUMNS = (
    "Name",
    "Incremental checkpointing",
    "Transparency",
    "Stable storage",
    "Initiation",
    "kernel module",
)


def table1_row(name: str, f: Features) -> Tuple[str, str, str, str, str, str]:
    """One mechanism's Table-1 row."""
    return (
        name,
        "yes" if f.incremental else "no",
        "yes" if f.transparent else "no",
        f.storage_label(),
        f.initiation.value,
        "yes" if f.kernel_module else "no",
    )


#: The paper's Table 1, transcribed verbatim for the E2 cross-check.
#: (name, incremental, transparency, storage, initiation, module)
PAPER_TABLE1: Dict[str, Tuple[str, str, str, str, str]] = {
    "VMADump": ("no", "no", "local,remote", "automatic", "no"),
    "BPROC": ("no", "no", "none", "automatic", "no"),
    "EPCKPT": ("no", "yes", "local,remote", "user", "no"),
    "CRAK": ("no", "yes", "local,remote", "user", "yes"),
    "UCLik": ("no", "yes", "local", "user", "yes"),
    "CHPOX": ("no", "yes", "local", "user", "yes"),
    "ZAP": ("no", "yes", "none", "user", "yes"),
    "BLCR": ("no", "no", "local,remote", "user", "yes"),
    "LAM/MPI": ("no", "no", "local,remote", "user", "yes"),
    "PsncR/C": ("no", "yes", "local", "user", "yes"),
    "Software Suspend": ("no", "yes", "local", "user", "no"),
    "Checkpoint": ("no", "no", "local", "automatic", "no"),
}
