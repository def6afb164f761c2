"""Tests for exception graphs: construction, resolution, generation, pruning."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import exception_graph_level_size
from repro.core import (
    ActionContext,
    ExceptionGraph,
    ExceptionGraphError,
    UNIVERSAL,
    generate_full_graph,
    graph_statistics,
    internal,
    prune_impossible_combinations,
)

E1, E2, E3, E4 = (internal(f"e{i}") for i in range(1, 5))


def small_graph():
    """The paper's Figure 3 style graph over three primitives."""
    return generate_full_graph([E1, E2, E3], action_name="fig3")


class TestConstruction:
    def test_universal_exception_always_present(self):
        graph = ExceptionGraph("g")
        assert UNIVERSAL in graph
        assert len(graph) == 1

    def test_add_exception_defaults_under_universal(self):
        graph = ExceptionGraph("g")
        graph.add_exception(E1)
        assert graph.parents(E1) == {UNIVERSAL}
        assert E1 in graph.children(UNIVERSAL)

    def test_add_cover_creates_edge(self):
        graph = ExceptionGraph("g")
        resolving = internal("both")
        graph.declare_hierarchy(resolving, [E1, E2])
        assert graph.children(resolving) == {E1, E2}
        assert graph.covers(resolving, E1)

    def test_implicit_universal_edge_removed_when_real_parent_added(self):
        graph = ExceptionGraph("g")
        graph.add_exception(E1)
        resolving = internal("r")
        graph.declare_hierarchy(resolving, [E1])
        assert UNIVERSAL not in graph.parents(E1)

    def test_self_cover_rejected(self):
        graph = ExceptionGraph("g")
        graph.add_exception(E1)
        with pytest.raises(ExceptionGraphError):
            graph.add_cover(E1, E1)

    def test_cycle_rejected(self):
        graph = ExceptionGraph("g")
        a, b = internal("a"), internal("b")
        graph.add_cover(a, b)
        with pytest.raises(ExceptionGraphError):
            graph.add_cover(b, a)

    def test_validate_accepts_well_formed_graph(self):
        small_graph().validate()

    def test_degrees_and_node_kinds(self):
        graph = small_graph()
        assert graph.out_degree(E1) == 0                   # primitive
        assert graph.in_degree(UNIVERSAL) == 0             # root
        assert set(graph.primitives()) == {E1, E2, E3}
        assert all(graph.in_degree(r) > 0 and graph.out_degree(r) > 0
                   for r in graph.resolving_exceptions())

    def test_levels_match_figure3(self):
        graph = small_graph()
        assert graph.level(E1) == 0
        pair = next(node for node in graph.exceptions
                    if node.name == "e1&e2")
        triple = next(node for node in graph.exceptions
                      if node.name == "e1&e2&e3")
        assert graph.level(pair) == 1
        assert graph.level(triple) == 2
        assert graph.level(graph.universal) == 3


class TestResolution:
    def test_single_exception_resolves_to_itself(self):
        assert small_graph().resolve([E1]) == E1

    def test_pair_resolves_to_covering_node(self):
        assert small_graph().resolve([E1, E2]).name == "e1&e2"

    def test_all_three_resolve_to_top_combination(self):
        assert small_graph().resolve([E1, E2, E3]).name == "e1&e2&e3"

    def test_unknown_exception_resolves_to_universal(self):
        graph = small_graph()
        assert graph.resolve([E1, internal("unknown")]) == graph.universal

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            small_graph().resolve([])

    def test_resolution_is_deterministic(self):
        graph = small_graph()
        results = {graph.resolve([E2, E3]) for _ in range(10)}
        assert len(results) == 1

    def test_resolution_order_independent(self):
        graph = small_graph()
        for permutation in itertools.permutations([E1, E2, E3]):
            assert graph.resolve(permutation).name == "e1&e2&e3"

    def test_duplicates_ignored(self):
        assert small_graph().resolve([E1, E1, E1]) == E1

    def test_truncated_graph_falls_back_to_universal(self):
        graph = generate_full_graph([E1, E2, E3], max_level=1)
        assert graph.resolve([E1, E2]).name == "e1&e2"
        assert graph.resolve([E1, E2, E3]) == graph.universal

    def test_resolving_node_in_raised_set(self):
        graph = small_graph()
        pair = next(n for n in graph.exceptions if n.name == "e1&e2")
        assert graph.resolve([pair, E1]) == pair
        assert graph.resolve([pair, E3]).name == "e1&e2&e3"


class TestGeneration:
    def test_node_count_matches_closed_form(self):
        # n primitives -> sum over k of C(n, k) combinations plus universal.
        primitives = [internal(f"p{i}") for i in range(4)]
        graph = generate_full_graph(primitives)
        expected = sum(exception_graph_level_size(4, level)
                       for level in range(4)) + 1
        assert len(graph) == expected

    def test_level_sizes_match_paper_formulas(self):
        primitives = [internal(f"p{i}") for i in range(5)]
        graph = generate_full_graph(primitives)
        by_level = {}
        for node in graph.exceptions:
            if node == graph.universal:
                continue
            by_level.setdefault(graph.level(node), 0)
            by_level[graph.level(node)] += 1
        assert by_level[1] == 5 * 4 // 2                  # n(n-1)/2
        assert by_level[2] == 5 * 4 * 3 // 6              # n(n-1)(n-2)/6
        assert by_level[4] == 1                           # single top node

    def test_duplicate_primitives_rejected(self):
        with pytest.raises(ValueError):
            generate_full_graph([E1, E1])

    def test_empty_primitives_rejected(self):
        with pytest.raises(ValueError):
            generate_full_graph([])

    def test_statistics_summary(self):
        stats = graph_statistics(small_graph())
        assert stats["primitives"] == 3
        assert stats["nodes"] == 8
        assert stats["max_level"] == 3


def full_graph_through_public_api(primitives, max_level=None):
    """``generate_full_graph`` spelt with ``add_exception``/``add_cover`` only.

    The reference for the generator's unchecked edge insertion: every edge
    here pays ``add_cover``'s cycle scan.
    """
    n = len(primitives)
    highest = n - 1 if max_level is None else min(max_level, n - 1)
    graph = ExceptionGraph("generated")
    for primitive in primitives:
        graph.add_exception(primitive)
    by_subset = {frozenset([p]): p for p in primitives}
    for level in range(1, highest + 1):
        for subset in itertools.combinations(primitives, level + 1):
            names = sorted(e.name for e in subset)
            node = internal("&".join(names),
                            f"resolves concurrent {', '.join(names)}")
            graph.add_exception(node)
            by_subset[frozenset(subset)] = node
            for smaller in itertools.combinations(subset, level):
                graph.add_cover(node, by_subset[frozenset(smaller)])
    for node in graph.exceptions:
        if node != graph.universal and graph.in_degree(node) == 0:
            graph.add_cover(graph.universal, node)
    graph.validate()
    return graph


class TestGenerationMatchesPublicConstruction:
    @pytest.mark.parametrize("max_level", [None, 1, 2])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_graph_index_and_resolutions(self, n, max_level):
        primitives = [internal(f"p{i}") for i in range(n)]
        generated = generate_full_graph(primitives, max_level)
        reference = full_graph_through_public_api(primitives, max_level)

        assert generated.exceptions == reference.exceptions   # order too
        for node in reference.exceptions:
            assert generated.children(node) == reference.children(node)
            assert generated.parents(node) == reference.parents(node)
            assert generated.level(node) == reference.level(node)
            assert node.description == next(
                e for e in generated.exceptions if e == node).description
        assert generated.compiled().cover_masks == \
            reference.compiled().cover_masks
        assert generated.compiled().levels == reference.compiled().levels
        for size in range(1, n + 1):
            for raised in itertools.combinations(primitives, size):
                assert generated.resolve(raised) == reference.resolve(raised)


class TestPruning:
    def test_impossible_combination_removed(self):
        graph = small_graph()
        pruned = prune_impossible_combinations(graph, [frozenset({E1, E2})])
        names = {node.name for node in pruned.exceptions}
        assert "e1&e2" not in names
        # The larger combination covering e1&e2 is also impossible.
        assert "e1&e2&e3" not in names

    def test_pruned_graph_still_resolves_via_universal(self):
        graph = small_graph()
        pruned = prune_impossible_combinations(graph, [frozenset({E1, E2})])
        assert pruned.resolve([E1, E2]) == pruned.universal
        assert pruned.resolve([E1, E3]).name == "e1&e3"

    def test_pruning_preserves_validity(self):
        graph = generate_full_graph([E1, E2, E3, E4])
        pruned = prune_impossible_combinations(
            graph, [frozenset({E1, E2}), frozenset({E3, E4})])
        pruned.validate()


# ----------------------------------------------------------------------
# The compiled resolution index
# ----------------------------------------------------------------------
class TestCompiledIndex:
    def test_index_is_cached(self):
        graph = small_graph()
        assert graph.compiled() is graph.compiled()

    def test_index_shared_across_action_contexts(self):
        # All participants of an action hold contexts over the same graph
        # object, so they share one compiled index build.
        graph = small_graph()
        context_a = ActionContext("A", ("T1", "T2"), graph)
        context_b = ActionContext("A", ("T1", "T2"), graph)
        assert context_a.compiled_graph is context_b.compiled_graph
        assert context_a.resolve([E1, E2]).name == "e1&e2"

    def test_add_exception_invalidates_index(self):
        graph = ExceptionGraph("g")
        graph.add_exception(E1)
        before = graph.compiled()
        graph.add_exception(E4)
        after = graph.compiled()
        assert after is not before
        assert E4 in after.positions

    def test_add_cover_invalidates_index(self):
        graph = ExceptionGraph("g")
        graph.add_exception(E1)
        graph.add_exception(E2)
        before = graph.compiled()
        version_before = graph.version
        # Without a common cover the pair resolves to the universal node.
        assert graph.resolve([E1, E2]) == graph.universal
        resolving = internal("both")
        graph.declare_hierarchy(resolving, [E1, E2])
        assert graph.version > version_before
        assert graph.compiled() is not before
        # The new cover is picked up immediately: no stale index answers.
        assert graph.resolve([E1, E2]) == resolving

    def test_levels_and_descendant_counts_match_naive(self):
        graph = generate_full_graph([E1, E2, E3, E4])
        for node in graph.exceptions:
            assert graph.level(node) == graph.level_naive(node)
            assert graph.descendant_count(node) == len(graph.descendants(node))

    def test_primitive_cover_sets(self):
        graph = small_graph()
        index = graph.compiled()
        pair = next(n for n in graph.exceptions if n.name == "e1&e2")
        assert index.primitive_cover(pair) == frozenset({E1, E2})
        assert index.primitive_cover(E1) == frozenset({E1})
        assert index.primitive_cover(graph.universal) == frozenset({E1, E2, E3})

    def test_unknown_node_raises_keyerror(self):
        graph = small_graph()
        with pytest.raises(KeyError):
            graph.level(internal("stranger"))
        with pytest.raises(KeyError):
            graph.descendant_count(internal("stranger"))

    def test_statistics_and_resolution_fast_on_wide_graph(self):
        # Acceptance bar: 12 primitives (max_level=3, 794 nodes) must
        # complete graph_statistics plus a 100-call resolve loop in < 1s.
        import random
        import time

        primitives = [internal(f"w{i:02d}") for i in range(12)]
        graph = generate_full_graph(primitives, max_level=3)
        rng = random.Random(7)
        start = time.perf_counter()
        stats = graph_statistics(graph)
        for _ in range(100):
            graph.resolve(rng.sample(primitives, rng.randint(1, 6)))
        elapsed = time.perf_counter() - start
        assert stats["primitives"] == 12
        assert elapsed < 1.0

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_compiled_matches_naive_on_random_dags(self, data):
        # Randomized DAGs: edges only from lower to higher index, so the
        # construction never cycles; resolution through the compiled index
        # must pick the identical exception to the naive scan.
        n = data.draw(st.integers(min_value=2, max_value=10))
        nodes = [internal(f"n{i}") for i in range(n)]
        graph = ExceptionGraph("random")
        for node in nodes:
            graph.add_exception(node)
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda pair: pair[0] < pair[1]),
            max_size=3 * n))
        for parent_index, child_index in edges:
            graph.add_cover(nodes[parent_index], nodes[child_index])
        raised = data.draw(st.lists(st.sampled_from(nodes), min_size=1,
                                    max_size=n))
        assert graph.resolve(raised) == graph.resolve_naive(raised)
        for node in graph.exceptions:
            assert graph.level(node) == graph.level_naive(node)

# ----------------------------------------------------------------------
# Property-based tests on the resolution invariants
# ----------------------------------------------------------------------
primitive_lists = st.lists(
    st.integers(min_value=0, max_value=6), min_size=1, max_size=6,
    unique=True).map(lambda ids: [internal(f"p{i}") for i in ids])


class TestResolutionProperties:
    @given(primitives=primitive_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_resolution_covers_every_raised_exception(self, primitives,
                                                               data):
        graph = generate_full_graph(primitives)
        raised = data.draw(st.lists(st.sampled_from(primitives), min_size=1,
                                    max_size=len(primitives)))
        resolved = graph.resolve(raised)
        for exception in raised:
            assert graph.covers(resolved, exception)

    @given(primitives=primitive_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_resolution_is_minimal(self, primitives, data):
        graph = generate_full_graph(primitives)
        raised = set(data.draw(st.lists(st.sampled_from(primitives),
                                        min_size=1, max_size=len(primitives))))
        resolved = graph.resolve(raised)
        covered = graph.descendants(resolved) | {resolved}
        # No other node covering the whole raised set covers fewer exceptions.
        for candidate in graph.exceptions:
            candidate_covered = graph.descendants(candidate) | {candidate}
            if raised <= candidate_covered:
                assert len(covered) <= len(candidate_covered)

    @given(primitives=primitive_lists)
    @settings(max_examples=60, deadline=None)
    def test_property_generated_graphs_are_valid_dags(self, primitives):
        graph = generate_full_graph(primitives)
        graph.validate()
        assert set(graph.primitives()) == set(primitives)

    @given(primitives=primitive_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_compiled_matches_naive_on_generated_graphs(
            self, primitives, data):
        max_level = data.draw(st.one_of(
            st.none(), st.integers(1, max(1, len(primitives) - 1))))
        graph = generate_full_graph(primitives, max_level=max_level)
        pool = graph.exceptions
        raised = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=min(5, len(pool))))
        assert graph.resolve(raised) == graph.resolve_naive(raised)

    @given(primitives=primitive_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_resolution_idempotent(self, primitives, data):
        graph = generate_full_graph(primitives)
        raised = data.draw(st.lists(st.sampled_from(primitives), min_size=1,
                                    max_size=len(primitives)))
        once = graph.resolve(raised)
        assert graph.resolve([once]) == once
        assert graph.resolve(list(raised) + [once]) == once
