"""Mechanism registry: name -> Checkpointer class + taxonomy position.

Figure 1 and Table 1 are *generated from this registry* (benchmarks E1
and E2), so registering a new mechanism automatically places it in the
figure and adds its row to the table.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from ..errors import RegistryError
from .checkpointer import Checkpointer
from .features import Features
from .taxonomy import TaxonomyPosition

__all__ = ["register", "get", "names", "positions", "features", "clear"]

_REGISTRY: Dict[str, Type[Checkpointer]] = {}
#: Registration order, preserved so Table 1 prints in the paper's order.
_ORDER: List[str] = []


def register(cls: Type[Checkpointer]) -> Type[Checkpointer]:
    """Class decorator: add a Checkpointer subclass to the registry."""
    name = cls.mech_name
    if not name or name == "abstract":
        raise RegistryError(f"{cls.__name__} must define a mech_name")
    if not isinstance(getattr(cls, "position", None), TaxonomyPosition):
        raise RegistryError(f"{name}: missing TaxonomyPosition")
    if not isinstance(getattr(cls, "features", None), Features):
        raise RegistryError(f"{name}: missing Features")
    if name in _REGISTRY:
        raise RegistryError(f"mechanism {name!r} already registered")
    _REGISTRY[name] = cls
    _ORDER.append(name)
    return cls


def get(name: str) -> Type[Checkpointer]:
    """Look up a mechanism class by its Table-1 name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown mechanism {name!r}; known: {', '.join(_ORDER)}"
        ) from None


def names() -> List[str]:
    """All registered names, in registration (paper) order."""
    return list(_ORDER)


def positions(surveyed_only: bool = False) -> List[Tuple[str, TaxonomyPosition]]:
    """(name, position) pairs for Figure 1.

    ``surveyed_only`` restricts to the mechanisms the paper itself
    covers, reproducing the figure exactly; the default includes designs
    this repository adds (marked ``surveyed = False``).
    """
    return [
        (n, _REGISTRY[n].position)
        for n in _ORDER
        if not surveyed_only or _REGISTRY[n].surveyed
    ]


def features() -> List[Tuple[str, Features]]:
    """(name, features) pairs for Table 1."""
    return [(n, _REGISTRY[n].features) for n in _ORDER]


def clear() -> None:
    """Empty the registry (test isolation only)."""
    _REGISTRY.clear()
    _ORDER.clear()
