"""Exception graphs and the resolution of concurrently raised exceptions.

Section 3.2 of the paper defines an exception graph ``G(E, R)``:

* each node is an exception; each directed edge ``(ei, ej)`` makes ``ei``
  the *parent* (covering exception) of ``ej``;
* nodes with out-degree 0 are **primitive** exceptions;
* nodes with both in- and out-degree non-zero are **resolving** exceptions;
* the single node with in-degree 0 is the **universal exception**.

When several exceptions are raised concurrently, they are resolved into
"the exception that is the root of the smallest subtree containing all the
raised exceptions" (following Campbell & Randell 1986).  This module
implements that resolution, the automatic generation of the full n-level
graph described in the paper, and the simplification rules listed at the end
of Section 3.2.

Because the Section 3.2 graphs grow combinatorially (level ``k`` holds up to
``C(n, k+1)`` resolving exceptions), the naive resolution scan — recomputing
every candidate's descendant set and walking the unmemoized ``level()``
recursion — does not scale past a handful of primitives.  Resolution
therefore runs against a :class:`CompiledGraphIndex`: an immutable snapshot
holding per-node cover bitsets over a frozen node order (with the primitive
columns exposed as primitive cover sets), cover-set sizes and memoized
levels/descendant counts.  The index is built lazily, cached on the graph,
invalidated by the mutating operations (:meth:`ExceptionGraph.add_exception`
and :meth:`ExceptionGraph.add_cover`), and shared by every participant of an
action that holds the same graph object (see
:class:`~repro.core.state.ActionContext`).  The original scan is kept as
:meth:`ExceptionGraph.resolve_naive` so tests can assert the compiled path
is observably identical.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .exceptions import (
    ExceptionDescriptor,
    ExceptionKind,
    UNIVERSAL,
    internal,
)


class ExceptionGraphError(ValueError):
    """Raised for structurally invalid graphs (cycles, missing root, ...)."""


class CompiledGraphIndex:
    """Immutable resolution index for one :class:`ExceptionGraph` snapshot.

    The index freezes the graph's node insertion order and assigns each node
    a bit position, so that every per-node quantity the resolution tie-break
    needs is available in O(1):

    ``cover_masks``
        ``cover_masks[i]`` is an int bitset with bit ``j`` set iff node ``i``
        covers node ``j`` (reflexively — bit ``i`` is always set).  Masked
        with :attr:`primitive_mask` this yields the node's primitive cover
        set over the frozen primitive order.
    ``cover_sizes``
        ``bin(cover_masks[i]).count("1")`` — the ``len(covered)`` of the
        naive scan (the primary tie-break key).
    ``levels``
        Memoized graph levels (primitives are level 0, every other node is
        one more than the maximum level of its children).  Descendant
        counts are ``cover_sizes[i] - 1``, exposed through
        :meth:`descendant_count`.

    With the index, resolving a raised set is one OR over the raised nodes'
    bits followed by a single pass over the frozen node order testing mask
    containment — no descendant recomputation and no level recursion.
    """

    __slots__ = ("nodes", "positions", "cover_masks", "cover_sizes",
                 "levels", "primitive_mask", "primitives", "version")

    def __init__(self, graph: "ExceptionGraph", version: int) -> None:
        children = graph._children
        self.version = version
        self.nodes: Tuple[ExceptionDescriptor, ...] = tuple(children)
        self.positions: Dict[ExceptionDescriptor, int] = {
            node: index for index, node in enumerate(self.nodes)}

        # Reverse-topological pass: children are fully computed before any
        # of their parents (the graph is a DAG by construction).
        order = self._reverse_topological(children)
        masks: List[int] = [0] * len(self.nodes)
        levels: List[int] = [0] * len(self.nodes)
        for node in order:
            index = self.positions[node]
            mask = 1 << index
            level = 0
            for child in children[node]:
                child_index = self.positions[child]
                mask |= masks[child_index]
                level = max(level, levels[child_index] + 1)
            masks[index] = mask
            levels[index] = level

        self.cover_masks: Tuple[int, ...] = tuple(masks)
        self.levels: Tuple[int, ...] = tuple(levels)
        self.cover_sizes: Tuple[int, ...] = tuple(
            bin(mask).count("1") for mask in masks)
        self.primitives: Tuple[ExceptionDescriptor, ...] = tuple(
            node for node in self.nodes if not children[node])
        primitive_mask = 0
        for primitive in self.primitives:
            primitive_mask |= 1 << self.positions[primitive]
        self.primitive_mask = primitive_mask

    @staticmethod
    def _reverse_topological(
            children: Dict[ExceptionDescriptor, Set[ExceptionDescriptor]]
    ) -> List[ExceptionDescriptor]:
        """Nodes ordered so every node appears after all its children."""
        order: List[ExceptionDescriptor] = []
        state: Dict[ExceptionDescriptor, int] = {}
        for root in children:
            if root in state:
                continue
            stack: List[Tuple[ExceptionDescriptor, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    state[node] = 2
                    order.append(node)
                    continue
                if state.get(node):
                    continue
                state[node] = 1
                stack.append((node, True))
                for child in children[node]:
                    if not state.get(child):
                        stack.append((child, False))
        return order

    # ------------------------------------------------------------------
    def level(self, exception: ExceptionDescriptor) -> int:
        """Memoized level of ``exception`` (raises ``KeyError`` if unknown)."""
        return self.levels[self.positions[exception]]

    def descendant_count(self, exception: ExceptionDescriptor) -> int:
        """Number of exceptions covered (strictly) by ``exception``."""
        return self.cover_sizes[self.positions[exception]] - 1

    def cover_mask(self, exception: ExceptionDescriptor) -> int:
        """The reflexive cover bitset of ``exception`` over the node order."""
        return self.cover_masks[self.positions[exception]]

    def primitive_cover(self, exception: ExceptionDescriptor
                        ) -> FrozenSet[ExceptionDescriptor]:
        """The primitive exceptions covered by ``exception`` (reflexively)."""
        mask = self.cover_mask(exception) & self.primitive_mask
        return frozenset(p for p in self.primitives
                         if mask & (1 << self.positions[p]))

    def resolve(self, raised_set: Set[ExceptionDescriptor],
                universal: ExceptionDescriptor) -> ExceptionDescriptor:
        """Set-cover lookup equivalent to the naive candidate scan."""
        target = 0
        for exception in raised_set:
            position = self.positions.get(exception)
            if position is None:
                return universal
            target |= 1 << position
        best_key: Optional[Tuple[int, int, str]] = None
        best: ExceptionDescriptor = universal
        for index, mask in enumerate(self.cover_masks):
            if mask & target == target:
                key = (self.cover_sizes[index], self.levels[index],
                       self.nodes[index].name)
                # Strict comparison keeps the first of fully-tied candidates
                # in frozen node order, matching the naive scan's stable sort.
                if best_key is None or key < best_key:
                    best_key = key
                    best = self.nodes[index]
        return best


class ExceptionGraph:
    """A directed acyclic graph of exceptions with covering semantics.

    The graph always contains a universal exception (created automatically
    unless one is supplied); every exception added without an explicit
    parent is covered directly by the universal exception, so resolution is
    total: any non-empty set of declared exceptions has a resolving
    exception.

    Parameters
    ----------
    name:
        Name of the owning CA action (used in error messages only).
    universal:
        Optional custom universal exception descriptor.
    """

    def __init__(self, name: str = "anonymous",
                 universal: ExceptionDescriptor = UNIVERSAL) -> None:
        self.name = name
        self.universal = universal
        self._children: Dict[ExceptionDescriptor, Set[ExceptionDescriptor]] = {
            universal: set()}
        self._parents: Dict[ExceptionDescriptor, Set[ExceptionDescriptor]] = {
            universal: set()}
        #: Cached compiled index; rebuilt lazily after any mutation.
        self._compiled: Optional[CompiledGraphIndex] = None
        #: Mutation counter; lets holders of an index detect staleness.
        self._version = 0
        #: ``_version`` at the last successful :meth:`validate`.
        self._validated_version = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_exception(self, exception: ExceptionDescriptor,
                      parent: Optional[ExceptionDescriptor] = None) -> ExceptionDescriptor:
        """Add ``exception`` to the graph, covered by ``parent``.

        If ``parent`` is omitted the exception hangs directly below the
        universal exception.  Adding an exception twice is allowed and
        merges the edges.
        """
        if exception not in self._children:
            self._children[exception] = set()
            self._parents[exception] = set()
            self._invalidate()
        effective_parent = parent if parent is not None else self.universal
        if effective_parent not in self._children:
            self.add_exception(effective_parent)
        if effective_parent != exception:
            self.add_cover(effective_parent, exception)
        return exception

    def add_cover(self, parent: ExceptionDescriptor,
                  child: ExceptionDescriptor) -> None:
        """Declare that ``parent`` covers ``child`` (edge parent -> child)."""
        for node in (parent, child):
            if node not in self._children:
                self._children[node] = set()
                self._parents[node] = set()
                self._invalidate()
        if parent == child:
            raise ExceptionGraphError(f"{parent} cannot cover itself")
        if self._reachable(child, parent):
            raise ExceptionGraphError(
                f"adding cover {parent} -> {child} would create a cycle")
        self._link(parent, child)

    def _link(self, parent: ExceptionDescriptor,
              child: ExceptionDescriptor) -> None:
        """Insert the edge parent -> child between two existing nodes.

        :meth:`add_cover` minus its reachability scan, for callers that
        know the edge cannot close a cycle.
        """
        self._children[parent].add(child)
        self._parents[child].add(parent)
        # A node with an explicit parent other than universal no longer needs
        # the implicit universal edge (keeps graphs tidy and levels meaningful).
        if parent != self.universal and self.universal in self._parents[child] \
                and len(self._parents[child]) > 1:
            self._parents[child].discard(self.universal)
            self._children[self.universal].discard(child)
        self._invalidate()

    def declare_hierarchy(self, resolving: ExceptionDescriptor,
                          covered: Sequence[ExceptionDescriptor]) -> ExceptionDescriptor:
        """Declare ``er: e1, e2, ..., ek`` as in the paper's keyword syntax."""
        self.add_exception(resolving)
        for child in covered:
            self.add_exception(child)
            self.add_cover(resolving, child)
        return resolving

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, exception: ExceptionDescriptor) -> bool:
        return exception in self._children

    def __len__(self) -> int:
        return len(self._children)

    @property
    def exceptions(self) -> List[ExceptionDescriptor]:
        """All exceptions in the graph (including the universal one)."""
        return list(self._children)

    def children(self, exception: ExceptionDescriptor) -> Set[ExceptionDescriptor]:
        """Direct lower-level nodes Γ(e)."""
        return set(self._children.get(exception, ()))

    def parents(self, exception: ExceptionDescriptor) -> Set[ExceptionDescriptor]:
        """Direct higher-level nodes Γ⁻¹(e)."""
        return set(self._parents.get(exception, ()))

    def out_degree(self, exception: ExceptionDescriptor) -> int:
        """d_out(e) = |Γ(e)|."""
        return len(self._children.get(exception, ()))

    def in_degree(self, exception: ExceptionDescriptor) -> int:
        """d_in(e) = |Γ⁻¹(e)|."""
        return len(self._parents.get(exception, ()))

    def primitives(self) -> List[ExceptionDescriptor]:
        """Exceptions with out-degree 0 (cover no other exception)."""
        return [e for e in self._children if self.out_degree(e) == 0]

    def resolving_exceptions(self) -> List[ExceptionDescriptor]:
        """Internal nodes: non-zero in-degree and out-degree."""
        return [e for e in self._children
                if self.out_degree(e) != 0 and self.in_degree(e) != 0]

    def descendants(self, exception: ExceptionDescriptor) -> Set[ExceptionDescriptor]:
        """All exceptions covered (directly or transitively) by ``exception``."""
        seen: Set[ExceptionDescriptor] = set()
        stack = [exception]
        while stack:
            current = stack.pop()
            for child in self._children.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def covers(self, higher: ExceptionDescriptor,
               lower: ExceptionDescriptor) -> bool:
        """True if ``higher`` covers ``lower`` (reflexively)."""
        return higher == lower or lower in self.descendants(higher)

    def level(self, exception: ExceptionDescriptor) -> int:
        """Level of the exception: primitives are level 0.

        The level of a non-primitive node is one more than the maximum level
        of its children, matching Figure 3 of the paper.  Served from the
        compiled index (memoized); :meth:`level_naive` keeps the original
        recursion for equivalence testing.
        """
        if exception not in self._children:
            raise KeyError(exception)
        return self.compiled().level(exception)

    def level_naive(self, exception: ExceptionDescriptor) -> int:
        """The original unmemoized level recursion (reference semantics)."""
        if exception not in self._children:
            raise KeyError(exception)
        children = self._children[exception]
        if not children:
            return 0
        return 1 + max(self.level_naive(child) for child in children)

    def descendant_count(self, exception: ExceptionDescriptor) -> int:
        """Number of exceptions covered (strictly) by ``exception``."""
        if exception not in self._children:
            raise KeyError(exception)
        return self.compiled().descendant_count(exception)

    # ------------------------------------------------------------------
    # Compiled index
    # ------------------------------------------------------------------
    def compiled(self) -> CompiledGraphIndex:
        """The compiled resolution index for the graph's current state.

        Built lazily and cached; :meth:`add_exception` and :meth:`add_cover`
        invalidate the cache, so the returned index always reflects the
        graph.  All participants of an action sharing this graph object
        (through their :class:`~repro.core.state.ActionContext`) share one
        index build.
        """
        if self._compiled is None:
            self._compiled = CompiledGraphIndex(self, self._version)
        return self._compiled

    @property
    def version(self) -> int:
        """Mutation counter (bumped by every structural change)."""
        return self._version

    def _invalidate(self) -> None:
        self._version += 1
        self._compiled = None

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ExceptionGraphError`.

        Invariants: exactly one node with in-degree 0 (the universal
        exception), no cycles (guaranteed by construction, re-checked here),
        and every node reachable from the universal exception.  A graph
        unchanged since its last successful validation is not re-walked.
        """
        if self._validated_version == self._version:
            return
        roots = [e for e in self._children if self.in_degree(e) == 0]
        if roots != [self.universal] and set(roots) != {self.universal}:
            raise ExceptionGraphError(
                f"graph {self.name!r}: expected the universal exception to be "
                f"the only root, found {roots}")
        reachable = self.descendants(self.universal) | {self.universal}
        unreachable = set(self._children) - reachable
        if unreachable:
            raise ExceptionGraphError(
                f"graph {self.name!r}: unreachable exceptions {unreachable}")
        self._assert_acyclic()
        self._validated_version = self._version

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, raised: Iterable[ExceptionDescriptor]) -> ExceptionDescriptor:
        """Resolve a set of concurrently raised exceptions.

        Returns the exception that is the root of the smallest subtree
        containing every raised exception: among all exceptions that cover
        the whole set, the one covering the fewest exceptions in total.
        Ties are broken by graph level (lower level preferred) and then by
        name, so resolution is deterministic and identical on every node —
        a requirement for all participants calling the same handler.

        Unknown exceptions resolve to the universal exception, as do empty
        covers (the paper: "other undefined exceptions ... simply lead to
        the raising of the universal exception").

        This is the hot path of every coordinator's resolution step; it runs
        against the compiled index (one bitset containment pass) and returns
        exactly what :meth:`resolve_naive` would.
        """
        raised_set = {e for e in raised if e is not None}
        if not raised_set:
            raise ValueError("cannot resolve an empty set of exceptions")
        if any(e not in self._children for e in raised_set):
            return self.universal
        if len(raised_set) == 1:
            return next(iter(raised_set))
        return self.compiled().resolve(raised_set, self.universal)

    def resolve_naive(self, raised: Iterable[ExceptionDescriptor]
                      ) -> ExceptionDescriptor:
        """The original O(V·E) candidate scan with unmemoized levels.

        Kept as the reference implementation: property tests assert that
        :meth:`resolve` (the compiled path) picks the identical exception —
        same winner under the size/level/name tie-break — on every graph.
        """
        raised_set = {e for e in raised if e is not None}
        if not raised_set:
            raise ValueError("cannot resolve an empty set of exceptions")
        if any(e not in self._children for e in raised_set):
            return self.universal
        if len(raised_set) == 1:
            return next(iter(raised_set))

        candidates: List[Tuple[int, int, str, ExceptionDescriptor]] = []
        for candidate in self._children:
            covered = self.descendants(candidate) | {candidate}
            if raised_set <= covered:
                candidates.append((len(covered), self.level_naive(candidate),
                                   candidate.name, candidate))
        if not candidates:
            return self.universal
        candidates.sort(key=lambda item: (item[0], item[1], item[2]))
        return candidates[0][3]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reachable(self, start: ExceptionDescriptor,
                   goal: ExceptionDescriptor) -> bool:
        return goal == start or goal in self.descendants(start)

    def _assert_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in self._children}

        def visit(node: ExceptionDescriptor) -> None:
            colour[node] = GREY
            for child in self._children[node]:
                if colour[child] == GREY:
                    raise ExceptionGraphError(
                        f"graph {self.name!r} contains a cycle through {child}")
                if colour[child] == WHITE:
                    visit(child)
            colour[node] = BLACK

        for node in self._children:
            if colour[node] == WHITE:
                visit(node)

    def __repr__(self) -> str:
        return (f"<ExceptionGraph {self.name!r} nodes={len(self._children)} "
                f"primitives={len(self.primitives())}>")


# ----------------------------------------------------------------------
# Automatic generation and simplification (Section 3.2)
# ----------------------------------------------------------------------
def combination_name(exceptions: Iterable[ExceptionDescriptor],
                     joiner: str = "&") -> str:
    """Canonical name for a resolving exception covering ``exceptions``."""
    return joiner.join(sorted(e.name for e in exceptions))


def generate_full_graph(primitives: Sequence[ExceptionDescriptor],
                        max_level: Optional[int] = None,
                        action_name: str = "generated") -> ExceptionGraph:
    """Generate the complete n-level exception graph of Section 3.2.

    Level 0 holds the ``n`` primitive exceptions; level ``k`` holds one
    resolving exception for every subset of size ``k + 1`` (so level 1 has
    up to n(n−1)/2 nodes, level 2 up to n(n−1)(n−2)/6, and level n−1 the
    single exception covering all primitives).  The universal exception sits
    above everything.

    ``max_level`` truncates generation: combinations larger than
    ``max_level + 1`` primitives are not represented and therefore resolve
    to the universal exception, which is the paper's third simplification
    rule ("an exception graph can be structured to contain only part of
    resolving exceptions").
    """
    primitives = list(primitives)
    if len(set(primitives)) != len(primitives):
        raise ValueError("primitive exceptions must be distinct")
    n = len(primitives)
    if n == 0:
        raise ValueError("need at least one primitive exception")
    highest = n - 1 if max_level is None else min(max_level, n - 1)

    graph = ExceptionGraph(action_name)
    for primitive in primitives:
        graph.add_exception(primitive)

    #: Maps a frozenset of primitives to the node covering exactly that set.
    by_subset: Dict[FrozenSet[ExceptionDescriptor], ExceptionDescriptor] = {
        frozenset([p]): p for p in primitives}

    for level in range(1, highest + 1):
        size = level + 1
        for subset in itertools.combinations(primitives, size):
            subset_key = frozenset(subset)
            node = internal(combination_name(subset),
                            f"resolves concurrent {combination_name(subset, ', ')}")
            graph.add_exception(node)
            by_subset[subset_key] = node
            # Cover every node representing a subset one element smaller.
            # ``node`` is new and has no parent but the universal exception,
            # so no child can reach it: the per-edge cycle scan of add_cover
            # (a descendants() walk per edge) is skipped, and validate()
            # below still checks acyclicity once.
            for smaller in itertools.combinations(subset, size - 1):
                graph._link(node, by_subset[frozenset(smaller)])

    # Everything not covered by some other node hangs below universal; that
    # is already ensured by add_exception's default parenting, but the top
    # resolving nodes acquired explicit parents only if a larger combination
    # exists, so re-attach the orphans.
    for node in graph.exceptions:
        if node != graph.universal and graph.in_degree(node) == 0:
            graph.add_cover(graph.universal, node)
    graph.validate()
    return graph


def prune_impossible_combinations(
        graph: ExceptionGraph,
        impossible: Iterable[FrozenSet[ExceptionDescriptor]]) -> ExceptionGraph:
    """Simplification rule 1: drop resolving nodes for combinations that
    cannot be raised concurrently.

    ``impossible`` is a collection of primitive-exception sets; any resolving
    node whose covered primitive set is a superset of one of them is removed.
    Children of removed nodes are re-attached to the universal exception if
    they would otherwise become unreachable.  A new graph is returned; the
    input graph is not modified.
    """
    impossible = [frozenset(s) for s in impossible]
    pruned = ExceptionGraph(graph.name + "-pruned", universal=graph.universal)
    removed: Set[ExceptionDescriptor] = set()
    primitive_set = set(graph.primitives())

    for node in graph.exceptions:
        if node == graph.universal or graph.out_degree(node) == 0:
            continue
        covered_primitives = graph.descendants(node) & primitive_set
        if any(bad <= covered_primitives for bad in impossible):
            removed.add(node)

    for node in graph.exceptions:
        if node in removed or node == graph.universal:
            continue
        pruned.add_exception(node)
    for node in graph.exceptions:
        if node in removed or node == graph.universal:
            continue
        for child in graph.children(node):
            if child not in removed:
                pruned.add_cover(node, child)
    for node in pruned.exceptions:
        if node != pruned.universal and pruned.in_degree(node) == 0:
            pruned.add_cover(pruned.universal, node)
    pruned.validate()
    return pruned


def graph_statistics(graph: ExceptionGraph) -> Dict[str, int]:
    """Summary counts used by tests and by the DESIGN/EXPERIMENTS reports."""
    index = graph.compiled()
    return {
        "nodes": len(graph),
        "primitives": len(graph.primitives()),
        "resolving": len(graph.resolving_exceptions()),
        "max_level": max(index.levels, default=0),
    }
