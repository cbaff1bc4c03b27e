"""Core checkpoint/restart framework.

Images, the Checkpointer API, the taxonomy (Figure 1), the feature
matrix (Table 1), the mechanism registry, the paper's advocated
"direction forward" design, and the autonomic policies built on it.
"""

from . import capture, registry
from .checkpointer import Checkpointer, CheckpointRequest, RequestState
from .features import (
    Features,
    Initiation,
    PAPER_TABLE1,
    TABLE1_COLUMNS,
    table1_row,
)
from .image import (
    CheckpointImage,
    Chunk,
    FDDescriptor,
    VMADescriptor,
    materialize_chain,
)
from .taxonomy import Agent, Context, TaxonomyPosition, render_figure1

__all__ = [
    "capture",
    "registry",
    "Checkpointer",
    "CheckpointRequest",
    "RequestState",
    "Features",
    "Initiation",
    "PAPER_TABLE1",
    "TABLE1_COLUMNS",
    "table1_row",
    "CheckpointImage",
    "Chunk",
    "FDDescriptor",
    "VMADescriptor",
    "materialize_chain",
    "Agent",
    "Context",
    "TaxonomyPosition",
    "render_figure1",
]
