"""Hash-consed reduced ordered binary decision diagrams (ROBDDs).

This is the Boolean-function workhorse of the library.  Speed-path
characteristic functions (SPCFs), node care-sets, and signal probabilities are
all represented as BDDs over the primary inputs of a circuit.

The manager stores nodes in flat arrays indexed by integer ids; ``0`` and
``1`` are the terminal nodes.  The public API hands out :class:`Function`
wrappers with operator overloading so client code reads naturally::

    mgr = BddManager(["a", "b"])
    a, b = mgr.var("a"), mgr.var("b")
    f = a & ~b
    assert f.count() == 1

Variable order is the order of registration.  There is no dynamic reordering;
callers should register variables in circuit-topological order, which keeps
the cones of control-logic circuits small.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.errors import BddError

# BDD operations recurse to the depth of a function's support; circuits with
# hundreds of primary inputs need more than CPython's default 1000 frames.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

#: Sentinel level for the terminal nodes; larger than any variable level.
_TERMINAL_LEVEL = 1 << 60


class BddManager:
    """Owner of a shared ROBDD node store.

    Parameters
    ----------
    var_names:
        Optional initial variable names, registered in order.  More variables
        can be appended later with :meth:`add_var`.
    """

    def __init__(self, var_names: Iterable[str] = ()) -> None:
        # Node store: parallel arrays. Index 0 / 1 are the constants.
        self._level: list[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        # Operation caches.
        self._not_cache: dict[int, int] = {}
        self._and_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        # Model-count memo per ``nvars`` (see satcount): nodes never change,
        # so entries stay valid for the manager's lifetime.
        self._count_memo: dict[int, dict[int, int]] = {}
        # Per-operation call counters and exact computed-table hit/miss
        # counters.  Off by default: managers created while observability is
        # disabled carry no wrappers at all, so the recursive hot paths keep
        # their original cost.  Managers created while obs is enabled count
        # automatically (see stats()).
        self._op_counts: dict[str, int] | None = None
        self._cache_counts: dict[str, list[int]] | None = None
        if obs.get_meter().enabled:
            self.enable_op_counting()
        for name in var_names:
            self.add_var(name)

    # ------------------------------------------------------------------ vars

    def add_var(self, name: str) -> "Function":
        """Register a new variable at the bottom of the current order."""
        if name in self._var_index:
            raise BddError(f"variable {name!r} already registered")
        self._var_index[name] = len(self._var_names)
        self._var_names.append(name)
        return self.var(name)

    def ensure_var(self, name: str) -> "Function":
        """Return the variable ``name``, registering it if unknown."""
        if name in self._var_index:
            return self.var(name)
        return self.add_var(name)

    @property
    def var_names(self) -> tuple[str, ...]:
        """All registered variable names, in order."""
        return tuple(self._var_names)

    @property
    def num_vars(self) -> int:
        """Number of registered variables."""
        return len(self._var_names)

    def level_of(self, name: str) -> int:
        """Return the order level of a registered variable."""
        try:
            return self._var_index[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def name_of(self, level: int) -> str:
        """Return the variable name at ``level``."""
        try:
            return self._var_names[level]
        except IndexError:
            raise BddError(f"no variable at level {level}") from None

    # ----------------------------------------------------------------- nodes

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Return the id of the (reduced, hash-consed) node ``(level, lo, hi)``."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    @property
    def num_nodes(self) -> int:
        """Total nodes allocated (including the two terminals)."""
        return len(self._level)

    # ----------------------------------------------------------- observability

    def enable_op_counting(self) -> None:
        """Count calls *and* exact computed-table hits/misses per operation.

        Counting is implemented by binding wrapper closures as *instance*
        attributes: a manager that never enables counting dispatches the
        original class methods with zero extra work, while the recursive
        self-calls of a counting manager resolve to the wrappers.

        Each wrapper replays its operation's terminal checks and key
        normalization, probes the computed table itself to attribute an
        exact hit or miss, and delegates the actual compute to the unbound
        original — whose recursive ``self._*`` calls re-enter the wrappers,
        so inner sub-calls are attributed too.  A "hit" is a probe that
        found the key, a "miss" is one that had to compute; terminal-rule
        short-circuits count as calls but touch neither bucket.
        """
        if self._op_counts is not None:
            return
        counts: dict[str, int] = {"mk": 0, "not": 0, "and": 0, "xor": 0, "ite": 0}
        cache_counts: dict[str, list[int]] = {
            "not": [0, 0],
            "and": [0, 0],
            "xor": [0, 0],
            "ite": [0, 0],
        }
        self._op_counts = counts
        self._cache_counts = cache_counts

        mk_unbound = type(self)._mk

        def counted_mk(level: int, lo: int, hi: int) -> int:
            counts["mk"] += 1
            return mk_unbound(self, level, lo, hi)

        not_unbound = type(self)._not
        not_cc = cache_counts["not"]

        def counted_not(u: int) -> int:
            counts["not"] += 1
            if u < 2:
                return 1 - u
            r = self._not_cache.get(u)
            if r is not None:
                not_cc[0] += 1
                return r
            not_cc[1] += 1
            return not_unbound(self, u)

        and_unbound = type(self)._and
        and_cc = cache_counts["and"]

        def counted_and(u: int, v: int) -> int:
            counts["and"] += 1
            if u == v:
                return u
            if u == 0 or v == 0:
                return 0
            if u == 1:
                return v
            if v == 1:
                return u
            if u > v:
                u, v = v, u
            r = self._and_cache.get((u, v))
            if r is not None:
                and_cc[0] += 1
                return r
            and_cc[1] += 1
            return and_unbound(self, u, v)

        xor_unbound = type(self)._xor
        xor_cc = cache_counts["xor"]

        def counted_xor(u: int, v: int) -> int:
            counts["xor"] += 1
            if u == v:
                return 0
            if u == 0:
                return v
            if v == 0:
                return u
            if u == 1 or v == 1:
                return xor_unbound(self, u, v)  # resolves via a counted _not
            if u > v:
                u, v = v, u
            r = self._xor_cache.get((u, v))
            if r is not None:
                xor_cc[0] += 1
                return r
            xor_cc[1] += 1
            return xor_unbound(self, u, v)

        ite_unbound = type(self)._ite
        ite_cc = cache_counts["ite"]

        def counted_ite(f: int, g: int, h: int) -> int:
            counts["ite"] += 1
            if f == 1:
                return g
            if f == 0:
                return h
            if g == h:
                return g
            if g == 1 and h == 0:
                return f
            if g == 0 and h == 1:
                return ite_unbound(self, f, g, h)  # resolves via a counted _not
            r = self._ite_cache.get((f, g, h))
            if r is not None:
                ite_cc[0] += 1
                return r
            ite_cc[1] += 1
            return ite_unbound(self, f, g, h)

        self._mk = counted_mk  # type: ignore[method-assign]
        self._not = counted_not  # type: ignore[method-assign]
        self._and = counted_and  # type: ignore[method-assign]
        self._xor = counted_xor  # type: ignore[method-assign]
        self._ite = counted_ite  # type: ignore[method-assign]

    def stats(self) -> dict[str, Any]:
        """Structural and (when counting) operational statistics.

        With counting enabled (:meth:`enable_op_counting`), ``computed_table``
        holds the **exact** per-operation computed-table hit/miss counts and
        ``cache_hit_rate`` is derived from them; both are absent otherwise.
        """
        out: dict[str, Any] = {
            "nodes": self.num_nodes,
            "vars": self.num_vars,
            "unique_entries": len(self._unique),
            "cache_entries": {
                "not": len(self._not_cache),
                "and": len(self._and_cache),
                "xor": len(self._xor_cache),
                "ite": len(self._ite_cache),
            },
        }
        if self._op_counts is not None:
            out["op_calls"] = dict(self._op_counts)
        if self._cache_counts is not None:
            table = {
                op: {"hits": hits, "misses": misses}
                for op, (hits, misses) in self._cache_counts.items()
            }
            out["computed_table"] = table
            out["cache_hit_rate"] = {
                op: round(c["hits"] / (c["hits"] + c["misses"]), 4)
                for op, c in table.items()
                if c["hits"] + c["misses"]
            }
        return out

    # ------------------------------------------------------------- constants

    @property
    def false(self) -> "Function":
        """The constant-0 function."""
        return Function(self, 0)

    @property
    def true(self) -> "Function":
        """The constant-1 function."""
        return Function(self, 1)

    def var(self, name: str) -> "Function":
        """Return the projection function of variable ``name``."""
        return Function(self, self._mk(self.level_of(name), 0, 1))

    def nvar(self, name: str) -> "Function":
        """Return the complement of variable ``name``."""
        return Function(self, self._mk(self.level_of(name), 1, 0))

    # -------------------------------------------------------------- core ops

    def _not(self, u: int) -> int:
        if u < 2:
            return 1 - u
        r = self._not_cache.get(u)
        if r is None:
            r = self._mk(self._level[u], self._not(self._lo[u]), self._not(self._hi[u]))
            self._not_cache[u] = r
            self._not_cache[r] = u
        return r

    def _and(self, u: int, v: int) -> int:
        if u == v:
            return u
        if u == 0 or v == 0:
            return 0
        if u == 1:
            return v
        if v == 1:
            return u
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._and_cache.get(key)
        if r is None:
            lu, lv = self._level[u], self._level[v]
            if lu == lv:
                r = self._mk(
                    lu,
                    self._and(self._lo[u], self._lo[v]),
                    self._and(self._hi[u], self._hi[v]),
                )
            elif lu < lv:
                r = self._mk(lu, self._and(self._lo[u], v), self._and(self._hi[u], v))
            else:
                r = self._mk(lv, self._and(u, self._lo[v]), self._and(u, self._hi[v]))
            self._and_cache[key] = r
        return r

    def _or(self, u: int, v: int) -> int:
        return self._not(self._and(self._not(u), self._not(v)))

    def _xor(self, u: int, v: int) -> int:
        if u == v:
            return 0
        if u == 0:
            return v
        if v == 0:
            return u
        if u == 1:
            return self._not(v)
        if v == 1:
            return self._not(u)
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._xor_cache.get(key)
        if r is None:
            lu, lv = self._level[u], self._level[v]
            if lu == lv:
                r = self._mk(
                    lu,
                    self._xor(self._lo[u], self._lo[v]),
                    self._xor(self._hi[u], self._hi[v]),
                )
            elif lu < lv:
                r = self._mk(lu, self._xor(self._lo[u], v), self._xor(self._hi[u], v))
            else:
                r = self._mk(lv, self._xor(u, self._lo[v]), self._xor(u, self._hi[v]))
            self._xor_cache[key] = r
        return r

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return self._not(f)
        key = (f, g, h)
        r = self._ite_cache.get(key)
        if r is None:
            level = min(self._level[f], self._level[g], self._level[h])
            f0, f1 = self._cof(f, level)
            g0, g1 = self._cof(g, level)
            h0, h1 = self._cof(h, level)
            r = self._mk(level, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
            self._ite_cache[key] = r
        return r

    def _cof(self, u: int, level: int) -> tuple[int, int]:
        """Cofactors of ``u`` with respect to the variable at ``level``."""
        if self._level[u] == level:
            return self._lo[u], self._hi[u]
        return u, u

    # --------------------------------------------------------- restrict etc.

    def _restrict(self, u: int, assignment: Mapping[int, bool], cache: dict[int, int]) -> int:
        if u < 2:
            return u
        r = cache.get(u)
        if r is not None:
            return r
        level = self._level[u]
        if level in assignment:
            r = self._restrict(
                self._hi[u] if assignment[level] else self._lo[u], assignment, cache
            )
        else:
            r = self._mk(
                level,
                self._restrict(self._lo[u], assignment, cache),
                self._restrict(self._hi[u], assignment, cache),
            )
        cache[u] = r
        return r

    def _compose(self, u: int, subst: Mapping[int, int], cache: dict[int, int]) -> int:
        """Simultaneously substitute functions for variables (by level)."""
        if u < 2:
            return u
        r = cache.get(u)
        if r is not None:
            return r
        level = self._level[u]
        lo = self._compose(self._lo[u], subst, cache)
        hi = self._compose(self._hi[u], subst, cache)
        g = subst.get(level)
        if g is None:
            # All substituted functions might be ordered arbitrarily, so use
            # ITE on the projection variable to rebuild correctly.
            g = self._mk(level, 0, 1)
        r = self._ite(g, hi, lo)
        cache[u] = r
        return r

    def _exists(
        self,
        u: int,
        levels: frozenset[int],
        max_level: int,
        cache: dict[int, int],
    ) -> int:
        if u < 2:
            return u
        level = self._level[u]
        if max_level < level:
            # Every quantified variable is above this node: nothing to do.
            return u
        r = cache.get(u)
        if r is not None:
            return r
        lo = self._exists(self._lo[u], levels, max_level, cache)
        hi = self._exists(self._hi[u], levels, max_level, cache)
        if level in levels:
            r = self._or(lo, hi)
        else:
            r = self._mk(level, lo, hi)
        cache[u] = r
        return r

    # ----------------------------------------------------------- inspection

    def _support(self, u: int, out: set[int], seen: set[int]) -> None:
        if u < 2 or u in seen:
            return
        seen.add(u)
        out.add(self._level[u])
        self._support(self._lo[u], out, seen)
        self._support(self._hi[u], out, seen)

    def _scaled_count(self, u: int, nvars: int, cache: dict[int, int]) -> int:
        """Satisfying assignments of ``u`` over the variables *below* its own
        level, i.e. over ``nvars - level(u)`` free variables."""
        if u == 0:
            return 0
        if u == 1:
            return 1  # zero free variables below a terminal reached directly
        r = cache.get(u)
        if r is None:
            level = self._level[u]
            lo, hi = self._lo[u], self._hi[u]
            lo_level = min(self._level[lo], nvars)
            hi_level = min(self._level[hi], nvars)
            clo = self._scaled_count(lo, nvars, cache) << (lo_level - level - 1)
            chi = self._scaled_count(hi, nvars, cache) << (hi_level - level - 1)
            r = clo + chi
            cache[u] = r
        return r

    def satcount(self, u: int, nvars: int | None = None) -> int:
        """Exact satisfying-assignment count of node ``u`` over ``nvars`` vars.

        Sub-counts are memoized on the manager per ``nvars``, so counting
        many functions of one manager (every net of a circuit) shares them.
        """
        if nvars is None:
            nvars = self.num_vars
        if u == 0:
            return 0
        if u == 1:
            return 1 << nvars
        level = self._level[u]
        if level >= nvars:
            raise BddError("satcount nvars smaller than function support")
        memo = self._count_memo.get(nvars)
        if memo is None:
            memo = self._count_memo[nvars] = {}
        return self._scaled_count(u, nvars, memo) << level

    # ------------------------------------------------------------- iterators

    def _iter_cubes(self, u: int, prefix: dict[int, bool]) -> Iterator[dict[int, bool]]:
        if u == 0:
            return
        if u == 1:
            yield dict(prefix)
            return
        level = self._level[u]
        prefix[level] = False
        yield from self._iter_cubes(self._lo[u], prefix)
        prefix[level] = True
        yield from self._iter_cubes(self._hi[u], prefix)
        del prefix[level]


class Function:
    """A Boolean function handle bound to a :class:`BddManager`.

    Instances are immutable value objects: equality is structural (same
    manager, same node id), and all operators return new handles.
    """

    __slots__ = ("manager", "node")

    def __init__(self, manager: BddManager, node: int) -> None:
        self.manager = manager
        self.node = node

    # ------------------------------------------------------------- operators

    def _check(self, other: "Function") -> None:
        if self.manager is not other.manager:
            raise BddError("cannot combine functions from different managers")

    def __invert__(self) -> "Function":
        return Function(self.manager, self.manager._not(self.node))

    def __and__(self, other: "Function") -> "Function":
        self._check(other)
        return Function(self.manager, self.manager._and(self.node, other.node))

    def __or__(self, other: "Function") -> "Function":
        self._check(other)
        return Function(self.manager, self.manager._or(self.node, other.node))

    def __xor__(self, other: "Function") -> "Function":
        self._check(other)
        return Function(self.manager, self.manager._xor(self.node, other.node))

    def __sub__(self, other: "Function") -> "Function":
        """Set difference: ``self & ~other``."""
        self._check(other)
        return Function(
            self.manager, self.manager._and(self.node, self.manager._not(other.node))
        )

    def ite(self, then_f: "Function", else_f: "Function") -> "Function":
        """If-then-else with ``self`` as the selector."""
        self._check(then_f)
        self._check(else_f)
        return Function(
            self.manager, self.manager._ite(self.node, then_f.node, else_f.node)
        )

    def iff(self, other: "Function") -> "Function":
        """Logical equivalence (XNOR)."""
        return ~(self ^ other)

    def implies(self, other: "Function") -> "Function":
        """Logical implication ``self -> other``."""
        return ~self | other

    # ------------------------------------------------------------ predicates

    @property
    def is_false(self) -> bool:
        """True iff this is the constant-0 function."""
        return self.node == 0

    @property
    def is_true(self) -> bool:
        """True iff this is the constant-1 function."""
        return self.node == 1

    def is_subset_of(self, other: "Function") -> bool:
        """True iff ``self -> other`` is a tautology."""
        self._check(other)
        return self.manager._and(self.node, self.manager._not(other.node)) == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Function)
            and other.manager is self.manager
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise BddError(
            "truth value of a BDD function is ambiguous; use .is_true/.is_false"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Function(node={self.node}, support={sorted(self.support())})"

    # ------------------------------------------------------------- transforms

    def restrict(self, assignment: Mapping[str, bool]) -> "Function":
        """Cofactor with respect to a partial variable assignment."""
        mgr = self.manager
        by_level = {mgr.level_of(name): bool(v) for name, v in assignment.items()}
        return Function(mgr, mgr._restrict(self.node, by_level, {}))

    def compose(self, substitution: Mapping[str, "Function"]) -> "Function":
        """Simultaneously substitute functions for variables."""
        mgr = self.manager
        subst: dict[int, int] = {}
        for name, fn in substitution.items():
            self._check(fn)
            subst[mgr.level_of(name)] = fn.node
        return Function(mgr, mgr._compose(self.node, subst, {}))

    def exists(self, names: Iterable[str]) -> "Function":
        """Existentially quantify the given variables."""
        mgr = self.manager
        levels = frozenset(mgr.level_of(n) for n in names)
        if not levels:
            return self
        return Function(mgr, mgr._exists(self.node, levels, max(levels), {}))

    def forall(self, names: Iterable[str]) -> "Function":
        """Universally quantify the given variables."""
        return ~((~self).exists(names))

    # ------------------------------------------------------------ inspection

    def support(self) -> set[str]:
        """Names of the variables this function depends on."""
        mgr = self.manager
        levels: set[int] = set()
        mgr._support(self.node, levels, set())
        return {mgr.name_of(lv) for lv in levels}

    def count(self, nvars: int | None = None) -> int:
        """Exact number of satisfying minterms over ``nvars`` variables.

        Defaults to all variables registered in the manager *at call time*.
        """
        return self.manager.satcount(self.node, nvars)

    def fraction(self, nvars: int | None = None) -> Fraction:
        """Fraction of the input space satisfying this function."""
        mgr = self.manager
        if nvars is None:
            nvars = mgr.num_vars
        return Fraction(self.count(nvars), 1 << nvars)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment of the support variables."""
        mgr = self.manager
        u = self.node
        while u > 1:
            name = mgr.name_of(mgr._level[u])
            try:
                v = assignment[name]
            except KeyError:
                raise BddError(f"assignment missing variable {name!r}") from None
            u = mgr._hi[u] if v else mgr._lo[u]
        return u == 1

    def cubes(self) -> Iterator[dict[str, bool]]:
        """Iterate the disjoint path-cubes of the BDD (not necessarily prime)."""
        mgr = self.manager
        for cube in mgr._iter_cubes(self.node, {}):
            yield {mgr.name_of(lv): val for lv, val in cube.items()}

    def pick_one(self) -> dict[str, bool] | None:
        """Return one satisfying partial assignment, or ``None`` if UNSAT."""
        for cube in self.cubes():
            return cube
        return None

    def dag_size(self) -> int:
        """Number of distinct internal BDD nodes of this function."""
        mgr = self.manager
        seen: set[int] = set()

        def walk(u: int) -> None:
            if u < 2 or u in seen:
                return
            seen.add(u)
            walk(mgr._lo[u])
            walk(mgr._hi[u])

        walk(self.node)
        return len(seen)


def cube_function(mgr: BddManager, literals: Mapping[str, bool]) -> Function:
    """Build the conjunction of the given literals as a :class:`Function`."""
    f = mgr.true
    for name, val in literals.items():
        f = f & (mgr.var(name) if val else mgr.nvar(name))
    return f


def disjunction(mgr: BddManager, fns: Sequence[Function]) -> Function:
    """OR together a sequence of functions (balanced for cache friendliness)."""
    if not fns:
        return mgr.false
    items = list(fns)
    while len(items) > 1:
        nxt = [items[i] | items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def conjunction(mgr: BddManager, fns: Sequence[Function]) -> Function:
    """AND together a sequence of functions (balanced)."""
    if not fns:
        return mgr.true
    items = list(fns)
    while len(items) > 1:
        nxt = [items[i] & items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
