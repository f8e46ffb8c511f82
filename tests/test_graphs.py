"""Graph layer: sampling, exhaustive enumeration, and the switching rule.

Enumeration oracles are independent of the code under test: labeled
2-regular graph counts come from a cycle-partition formula evaluated here,
the 3-regular count on 6 vertices follows from complementation (the
complement of a cubic graph on 6 vertices is 2-regular), and the count on
8 vertices is the published value 19355 of the labeled cubic graph
sequence (OEIS A005814).
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from conftest import cycle_adjacency
from rrglab.chain import switched_graph, tuple_switchable
from rrglab.graphs import (RegularGraph, enumerate_regular_graphs,
                           sample_regular_graph)
from rrglab.streams import rng_stream

LABELED_CUBIC_8 = 19355  # OEIS A005814


def labeled_two_regular_count(n):
    """Number of labeled 2-regular graphs on n vertices.

    Sums over partitions of the vertex set into cycles of length >= 3:
    a set of k labeled vertices carries (k-1)!/2 distinct cycles.
    """
    def count(remaining):
        if remaining == 0:
            return 1
        total = 0
        # anchor the lowest remaining vertex: its cycle is unique, so each
        # partition into cycles is generated exactly once
        for part in range(3, remaining + 1):
            choose = math.comb(remaining - 1, part - 1)
            cycles = math.factorial(part - 1) // 2
            total += choose * cycles * count(remaining - part)
        return total

    return count(n)


def test_two_regular_enumeration_matches_cycle_partition_formula():
    for n in (3, 4, 5, 6, 7, 8):
        graphs = enumerate_regular_graphs(n, 2)
        assert len(graphs) == labeled_two_regular_count(n)


def test_complete_graph_is_unique_three_regular_on_four_vertices():
    graphs = enumerate_regular_graphs(4, 3)
    assert len(graphs) == 1
    expected = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
    assert np.array_equal(graphs[0].adjacency, expected)


def test_cubic_count_on_six_vertices_matches_complementation():
    graphs = enumerate_regular_graphs(6, 3)
    assert len(graphs) == labeled_two_regular_count(6) == 70
    # complementation is an explicit bijection onto the 2-regular graphs
    two_regular_keys = {g.canonical_key()
                        for g in enumerate_regular_graphs(6, 2)}
    complement_keys = set()
    for g in graphs:
        comp = 1 - g.adjacency - np.eye(6, dtype=np.uint8)
        complement_keys.add(RegularGraph(comp.astype(np.uint8)).canonical_key())
    assert complement_keys == two_regular_keys


def test_cubic_count_on_eight_vertices():
    graphs = enumerate_regular_graphs(8, 3)
    assert len(graphs) == LABELED_CUBIC_8
    assert len({g.canonical_key() for g in graphs}) == LABELED_CUBIC_8


def test_enumerated_graphs_are_simple_and_regular():
    for g in enumerate_regular_graphs(6, 3):
        adj = g.adjacency
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert set(np.unique(adj)) <= {0, 1}
        assert (adj.sum(axis=0) == 3).all()


def test_tuple_switchable_on_hexagon():
    graph = RegularGraph(cycle_adjacency(6))
    # both pairs are edges and no cross pair is adjacent
    assert tuple_switchable(0, 1, 3, 4, graph)
    # cross pair {1, 2} is an edge
    assert not tuple_switchable(0, 1, 2, 3, graph)
    # {0, 2} is not an edge
    assert not tuple_switchable(0, 2, 3, 4, graph)
    # coincident vertices
    assert not tuple_switchable(0, 1, 1, 2, graph)


def test_switched_graph_rewires_and_preserves_degrees():
    graph = RegularGraph(cycle_adjacency(6))
    switched = switched_graph(graph, 0, 1, 3, 4)
    assert not switched.has_edge(0, 1) and not switched.has_edge(3, 4)
    assert switched.has_edge(0, 3) and switched.has_edge(1, 4)
    assert (switched.adjacency.sum(axis=0) == 2).all()
    assert graph.has_edge(0, 1)  # original untouched


def test_switch_is_an_involution():
    # the reversed tuple (i, m, j, n) undoes the switch at (i, j, m, n)
    graph = RegularGraph(cycle_adjacency(6))
    switched = switched_graph(graph, 0, 1, 3, 4)
    assert switched_graph(switched, 0, 3, 1, 4) == graph


def test_indicator_invariant_under_its_own_switch():
    graph = RegularGraph(cycle_adjacency(8))
    assert tuple_switchable(0, 1, 4, 5, graph)
    assert tuple_switchable(0, 4, 1, 5, switched_graph(graph, 0, 1, 4, 5))


def test_tuple_switchable_accepts_only_the_named_matching():
    # vertices (0, 1, 3, 4) induce the matching {0,1},{3,4}; a tuple is
    # accepted only when (i,j) and (m,n) name exactly those two edges, so
    # an order such as (0, 3, 4, 1) that pairs the vertices across the
    # matching is rejected
    graph = RegularGraph(cycle_adjacency(6))
    matching = {frozenset((0, 1)), frozenset((3, 4))}
    for order in itertools.permutations((0, 1, 3, 4)):
        named = {frozenset(order[:2]), frozenset(order[2:])}
        assert tuple_switchable(*order, graph) == int(named == matching)
    assert not tuple_switchable(0, 3, 4, 1, graph)


def test_tuple_switchable_matches_edge_pair_indicator(graph_24_4):
    # independent oracle: the four vertices are distinct and induce a
    # 1-regular subgraph (a perfect matching and nothing else); the chain's
    # rule adds that the matching is exactly {i,j},{m,n}
    rng = rng_stream(5)
    adj = graph_24_4.adjacency
    hits = 0
    for _ in range(4000):
        verts = [int(v) for v in rng.integers(0, 24, size=4)]
        i, j, m, n = verts
        induced = adj[np.ix_(verts, verts)]
        one_regular = (len(set(verts)) == 4
                       and bool((induced.sum(axis=1) == 1).all()))
        expected = int(one_regular and adj[i, j] and adj[m, n])
        got = tuple_switchable(i, j, m, n, graph_24_4)
        assert got == expected
        hits += got
    assert hits > 0  # the scan actually exercised accepting tuples


def test_sampler_validates_parameters():
    rng = rng_stream(0)
    with pytest.raises(ValueError):
        sample_regular_graph(5, 3, rng=rng)  # odd n*d
    with pytest.raises(ValueError):
        sample_regular_graph(4, 4, rng=rng)  # d >= n
    with pytest.raises(ValueError):
        sample_regular_graph(0, 0, rng=rng)


def test_sampler_output_is_regular_and_deterministic():
    g1 = sample_regular_graph(60, 6, rng=rng_stream(9))
    g2 = sample_regular_graph(60, 6, rng=rng_stream(9))
    g3 = sample_regular_graph(60, 6, rng=rng_stream(10))
    assert g1 == g2
    assert g1 != g3
    assert (g1.adjacency.sum(axis=0) == 6).all()
    assert not g1.adjacency.diagonal().any()


def test_sampler_picks_pairing_without_overflow_at_large_degree():
    # the expected rejection restart count exp((d-1)/2 + (d-1)^2/4) is past
    # the float range at d = 60; a RuntimeWarning fails this suite
    graph = sample_regular_graph(120, 60, rng=rng_stream(17), burn_in=0)
    assert (graph.adjacency.sum(axis=0) == 60).all()


def test_sampler_moments_match_pairing_model():
    """Edge indicators have mean d/(n-1) and triangles are O(d^3)."""
    n, d, reps = 48, 4, 300
    rng = rng_stream(11)
    edge_prob = np.zeros((n, n))
    triangles = []
    for _ in range(reps):
        g = sample_regular_graph(n, d, rng=rng)
        edge_prob += g.adjacency
        a = g.adjacency.astype(np.int64)
        triangles.append(np.trace(a @ a @ a) / 6)
    edge_prob /= reps
    off = ~np.eye(n, dtype=bool)
    assert abs(edge_prob[off].mean() - d / (n - 1)) < 1e-12  # exact by regularity
    # expected triangle count tends to (d-1)^3/6 for the pairing model
    expected = (d - 1) ** 3 / 6
    assert abs(np.mean(triangles) - expected) < 5 * np.std(triangles) / math.sqrt(reps) + 0.5


def test_sampler_is_uniform_on_cubic_six():
    """Chi-square over all 70 labeled graphs at (6, 3)."""
    enumerated = {g.canonical_key(): idx
                  for idx, g in enumerate(enumerate_regular_graphs(6, 3))}
    counts = np.zeros(len(enumerated))
    rng = rng_stream(12)
    draws = 4200
    for _ in range(draws):
        key = sample_regular_graph(6, 3, rng=rng).canonical_key()
        counts[enumerated[key]] += 1
    assert counts.sum() == draws
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-3


def test_sampler_is_uniform_on_cubic_eight_triangle_classes():
    """Coarse chi-square against enumerated triangle-count classes."""
    def triangle_count(adj):
        a = adj.astype(np.int64)
        return int(np.trace(a @ a @ a)) // 6

    class_totals = {}
    for g in enumerate_regular_graphs(8, 3):
        t = triangle_count(g.adjacency)
        class_totals[t] = class_totals.get(t, 0) + 1
    classes = sorted(class_totals)

    draws = 2000
    rng = rng_stream(13)
    observed = {t: 0 for t in classes}
    for _ in range(draws):
        observed[triangle_count(sample_regular_graph(8, 3, rng=rng).adjacency)] += 1

    expected = np.array([class_totals[t] / LABELED_CUBIC_8 * draws
                         for t in classes])
    counts = np.array([observed[t] for t in classes], dtype=float)
    # merge thin classes so every expected cell is >= 10
    keep = expected >= 10
    counts = np.append(counts[keep], counts[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 1e-3


def test_greedy_pairing_with_burn_in_is_uniform_on_quintic_eight():
    """Chi-square over all labeled 5-regular graphs on 8 vertices.

    Greedy pairing plus the default burn-in is the path of every spectral
    recipe (the sampler pairs greedily from d = 5 up).  The complement
    of a 5-regular graph on 8 vertices is 2-regular, so the space has
    ``labeled_two_regular_count(8)`` = 3507 graphs.  Pearson's statistic
    over k equiprobable cells has mean k - 1 and variance 2(k - 1)(1 - 1/draws)
    at any draw count, so one expected draw per cell suffices at this k.
    """
    enumerated = {g.canonical_key(): idx
                  for idx, g in enumerate(enumerate_regular_graphs(8, 5))}
    assert len(enumerated) == labeled_two_regular_count(8) == 3507
    counts = np.zeros(len(enumerated))
    rng = rng_stream(16)
    draws = len(enumerated)
    for _ in range(draws):
        graph = sample_regular_graph(8, 5, rng=rng)
        counts[enumerated[graph.canonical_key()]] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-3


def test_edges_listing_is_sorted_upper_triangle():
    g = sample_regular_graph(20, 3, rng=rng_stream(3))
    edges = g.edges()
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)
    assert len(edges) == 30
    assert RegularGraph.from_edges(20, edges) == g
