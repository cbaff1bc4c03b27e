"""The Figure-1 taxonomy, as live, typed data.

The paper classifies checkpoint/restart implementations along three
dimensions: the **context** (user level vs system level), the **agent**
providing the functionality, and implementation **specifics**.  Every
mechanism in :mod:`repro.mechanisms` declares its
:class:`TaxonomyPosition`; :func:`render_figure1` regenerates the
figure's tree from whatever is registered, so the figure is derived from
the code rather than transcribed from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

__all__ = ["Context", "Agent", "TaxonomyPosition", "render_figure1", "AGENTS_BY_CONTEXT"]


class Context(str, Enum):
    """Coarsest dimension: where the implementation lives."""

    USER_LEVEL = "user-level"
    SYSTEM_LEVEL = "system-level"


class Agent(str, Enum):
    """Who provides the checkpoint/restart functionality."""

    # -- user-level agents --
    SOURCE_CODE = "source code"  # programmed directly by the user
    PRECOMPILER = "pre-compiler"  # inserted automatically
    USER_SIGNAL_HANDLER = "signal handler"  # user-level handlers
    LD_PRELOAD = "LD_PRELOAD"  # interposed library, no relink
    CHECKPOINT_LIBRARY = "checkpoint library"  # linked-in primitives
    # -- system-level / operating-system agents --
    OS_SYSTEM_CALL = "system call"
    OS_KERNEL_SIGNAL = "kernel-mode signal handler"
    OS_KERNEL_THREAD = "kernel thread"
    # -- system-level / hardware agents --
    HW_DIRECTORY_CONTROLLER = "directory controller"
    HW_CACHE = "processor cache"


#: Which agents belong under which context in the figure's tree, and how
#: the OS/hardware split is drawn at system level.
AGENTS_BY_CONTEXT: Dict[Context, Dict[str, Tuple[Agent, ...]]] = {
    Context.USER_LEVEL: {
        "application": (
            Agent.SOURCE_CODE,
            Agent.PRECOMPILER,
            Agent.CHECKPOINT_LIBRARY,
        ),
        "runtime": (Agent.USER_SIGNAL_HANDLER, Agent.LD_PRELOAD),
    },
    Context.SYSTEM_LEVEL: {
        "operating system": (
            Agent.OS_SYSTEM_CALL,
            Agent.OS_KERNEL_SIGNAL,
            Agent.OS_KERNEL_THREAD,
        ),
        "hardware": (Agent.HW_DIRECTORY_CONTROLLER, Agent.HW_CACHE),
    },
}


@dataclass(frozen=True)
class TaxonomyPosition:
    """One mechanism's coordinates in the classification space."""

    context: Context
    agent: Agent
    #: Implementation specifics: free-form, but conventional keys include
    #: the user interface ("/dev ioctl", "/proc", "new syscall"), the
    #: consistency scheme ("stop", "fork/COW"), and packaging.
    specifics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        groups = AGENTS_BY_CONTEXT[self.context]
        valid = {a for agents in groups.values() for a in agents}
        if self.agent not in valid:
            raise ValueError(
                f"agent {self.agent.value!r} is not valid under context "
                f"{self.context.value!r}"
            )

    @property
    def subsystem(self) -> str:
        """The middle tier of the figure ('operating system', 'hardware',
        'application', 'runtime')."""
        for group, agents in AGENTS_BY_CONTEXT[self.context].items():
            if self.agent in agents:
                return group
        raise AssertionError("unreachable: validated in __post_init__")


def render_figure1(
    positions: Iterable[Tuple[str, TaxonomyPosition]],
    title: str = "Figure 1. Classification of the checkpoint/restart implementations.",
) -> str:
    """Render the taxonomy tree with registered mechanisms as leaves.

    ``positions`` is an iterable of (mechanism name, position).
    """
    by_slot: Dict[Tuple[Context, str, Agent], List[str]] = {}
    for name, pos in positions:
        by_slot.setdefault((pos.context, pos.subsystem, pos.agent), []).append(name)
    lines: List[str] = [title, "", "checkpoint/restart implementations"]
    contexts = list(Context)
    for ci, ctx in enumerate(contexts):
        ctx_last = ci == len(contexts) - 1
        lines.append(f"{'`-- ' if ctx_last else '|-- '}{ctx.value}")
        ctx_pad = "    " if ctx_last else "|   "
        groups = AGENTS_BY_CONTEXT[ctx]
        group_names = list(groups)
        for gi, group in enumerate(group_names):
            g_last = gi == len(group_names) - 1
            lines.append(f"{ctx_pad}{'`-- ' if g_last else '|-- '}{group}")
            g_pad = ctx_pad + ("    " if g_last else "|   ")
            agents = groups[group]
            for ai, agent in enumerate(agents):
                a_last = ai == len(agents) - 1
                names = sorted(by_slot.get((ctx, group, agent), []))
                suffix = f"  [{', '.join(names)}]" if names else ""
                lines.append(
                    f"{g_pad}{'`-- ' if a_last else '|-- '}{agent.value}{suffix}"
                )
    return "\n".join(lines)
