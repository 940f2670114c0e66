"""Reduced ordered BDD engine.

Public surface:

* :class:`~repro.bdd.manager.BddManager` — node store and variable order.
* :class:`~repro.bdd.manager.Function` — operator-overloaded function handle.
* :func:`~repro.bdd.isop.isop` / :func:`~repro.bdd.isop.isop_function` —
  Minato–Morreale irredundant SOP extraction.
"""

from repro.bdd.isop import cover_to_function, isop, isop_function
from repro.bdd.manager import (
    BddManager,
    Function,
    conjunction,
    cube_function,
    disjunction,
)

__all__ = [
    "BddManager",
    "Function",
    "conjunction",
    "cube_function",
    "disjunction",
    "isop",
    "isop_function",
    "cover_to_function",
]
