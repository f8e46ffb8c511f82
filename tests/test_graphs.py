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

from conftest import (cycle_adjacency, rejection_pairing_reference,
                      switched_graph)
from rrglab.chain import edge_array, tuple_switchable
from rrglab.graphs import (SamplingError, _pair_stubs_greedy,
                           _pair_stubs_rejection, enumerate_regular_graphs,
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
    assert np.array_equal(graphs[0], expected)


def test_cubic_count_on_six_vertices_matches_complementation():
    graphs = enumerate_regular_graphs(6, 3)
    assert len(graphs) == labeled_two_regular_count(6) == 70
    # complementation is an explicit bijection onto the 2-regular graphs
    two_regular_keys = {g.tobytes() for g in enumerate_regular_graphs(6, 2)}
    complement_keys = set()
    for g in graphs:
        comp = 1 - g - np.eye(6, dtype=np.uint8)
        complement_keys.add(comp.astype(np.uint8).tobytes())
    assert complement_keys == two_regular_keys


def test_cubic_count_on_eight_vertices():
    graphs = enumerate_regular_graphs(8, 3)
    assert len(graphs) == LABELED_CUBIC_8
    assert len({g.tobytes() for g in graphs}) == LABELED_CUBIC_8


def test_enumerated_graphs_are_simple_and_regular():
    for adj in enumerate_regular_graphs(6, 3):
        assert adj.dtype == np.uint8 and adj.flags.c_contiguous
        assert not adj.flags.writeable
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert set(np.unique(adj)) <= {0, 1}
        assert (adj.sum(axis=0) == 3).all()


def test_tuple_switchable_on_hexagon():
    graph = cycle_adjacency(6)
    # both pairs are edges and no cross pair is adjacent
    assert tuple_switchable(0, 1, 3, 4, graph)
    # cross pair {1, 2} is an edge
    assert not tuple_switchable(0, 1, 2, 3, graph)
    # {0, 2} is not an edge
    assert not tuple_switchable(0, 2, 3, 4, graph)
    # coincident vertices
    assert not tuple_switchable(0, 1, 1, 2, graph)


def test_switched_graph_rewires_and_preserves_degrees():
    graph = cycle_adjacency(6)
    switched = switched_graph(graph, 0, 1, 3, 4)
    assert not switched[0, 1] and not switched[3, 4]
    assert switched[0, 3] and switched[1, 4]
    assert (switched.sum(axis=0) == 2).all()
    assert graph[0, 1]  # original untouched


def test_switch_is_an_involution():
    # the reversed tuple (i, m, j, n) undoes the switch at (i, j, m, n)
    graph = cycle_adjacency(6)
    switched = switched_graph(graph, 0, 1, 3, 4)
    assert np.array_equal(switched_graph(switched, 0, 3, 1, 4), graph)


def test_indicator_invariant_under_its_own_switch():
    graph = cycle_adjacency(8)
    assert tuple_switchable(0, 1, 4, 5, graph)
    assert tuple_switchable(0, 4, 1, 5, switched_graph(graph, 0, 1, 4, 5))


def test_tuple_switchable_accepts_only_the_named_matching():
    # vertices (0, 1, 3, 4) induce the matching {0,1},{3,4}; a tuple is
    # accepted only when (i,j) and (m,n) name exactly those two edges, so
    # an order such as (0, 3, 4, 1) that pairs the vertices across the
    # matching is rejected
    graph = cycle_adjacency(6)
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
    adj = graph_24_4
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
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    assert g1.shape == (60, 60) and g1.dtype == np.uint8
    assert g1.flags.c_contiguous and not g1.flags.writeable
    assert (g1.sum(axis=0) == 6).all()
    assert not g1.diagonal().any()


def test_sampler_picks_pairing_without_overflow_at_large_degree():
    # the expected rejection restart count exp((d-1)/2 + (d-1)^2/4) is past
    # the float range at d = 60; a RuntimeWarning fails this suite
    graph = sample_regular_graph(120, 60, rng=rng_stream(17))
    assert (graph.sum(axis=0) == 60).all()


def test_sampler_moments_match_pairing_model():
    """Edge indicators have mean d/(n-1) and triangles are O(d^3)."""
    n, d, reps = 48, 4, 300
    rng = rng_stream(11)
    edge_prob = np.zeros((n, n))
    triangles = []
    for _ in range(reps):
        g = sample_regular_graph(n, d, rng=rng)
        edge_prob += g
        a = g.astype(np.int64)
        triangles.append(np.trace(a @ a @ a) / 6)
    edge_prob /= reps
    off = ~np.eye(n, dtype=bool)
    assert abs(edge_prob[off].mean() - d / (n - 1)) < 1e-12  # exact by regularity
    # expected triangle count tends to (d-1)^3/6 for the pairing model
    expected = (d - 1) ** 3 / 6
    assert abs(np.mean(triangles) - expected) < 5 * np.std(triangles) / math.sqrt(reps) + 0.5


def test_sampler_is_uniform_on_cubic_six():
    """Chi-square over all 70 labeled graphs at (6, 3)."""
    enumerated = {g.tobytes(): idx
                  for idx, g in enumerate(enumerate_regular_graphs(6, 3))}
    counts = np.zeros(len(enumerated))
    rng = rng_stream(12)
    draws = 4200
    for _ in range(draws):
        key = sample_regular_graph(6, 3, rng=rng).tobytes()
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
        t = triangle_count(g)
        class_totals[t] = class_totals.get(t, 0) + 1
    classes = sorted(class_totals)

    draws = 2000
    rng = rng_stream(13)
    observed = {t: 0 for t in classes}
    for _ in range(draws):
        observed[triangle_count(sample_regular_graph(8, 3, rng=rng))] += 1

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
    enumerated = {g.tobytes(): idx
                  for idx, g in enumerate(enumerate_regular_graphs(8, 5))}
    assert len(enumerated) == labeled_two_regular_count(8) == 3507
    counts = np.zeros(len(enumerated))
    rng = rng_stream(16)
    draws = len(enumerated)
    for _ in range(draws):
        graph = sample_regular_graph(8, 5, rng=rng)
        counts[enumerated[graph.tobytes()]] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-3


def greedy_pairing_reference(n, d, rng):
    """Greedy pairing, one stub pair at a time: the loop that the sampler's
    vectorized rounds must reproduce draw for draw."""
    for _ in range(1000):
        adj = np.zeros((n, n), dtype=np.uint8)
        stubs = [int(u) for u in np.repeat(np.arange(n), d)]
        while stubs:
            order = rng.permutation(len(stubs))
            shuffled = [stubs[t] for t in order]
            leftovers = {}
            for u, v in zip(shuffled[0::2], shuffled[1::2]):
                if u != v and not adj[u, v]:
                    adj[u, v] = adj[v, u] = 1
                else:
                    leftovers[u] = leftovers.get(u, 0) + 1
                    leftovers[v] = leftovers.get(v, 0) + 1
            stubs = [u for u, c in leftovers.items() for _ in range(c)]
            nodes = list(leftovers)
            if len(nodes) == 1 or (len(nodes) > 1 and all(
                    adj[u, v] for u, v in itertools.combinations(nodes, 2))):
                break
        if not stubs:
            return adj
    raise AssertionError("greedy pairing kept reaching dead ends")


@pytest.mark.parametrize("n, d", [(8, 5), (9, 8), (16, 15), (32, 16),
                                  (40, 6), (120, 60)])
def test_greedy_pairing_matches_stub_by_stub_reference(n, d):
    # (9, 8) and (16, 15) pair into a complete graph, so dead ends and
    # restarts are frequent; every case also repeats pairs within a round
    for seed in range(5):
        fast, slow = rng_stream(seed, stream_id=n), rng_stream(seed, stream_id=n)
        assert np.array_equal(_pair_stubs_greedy(n, d, fast),
                              greedy_pairing_reference(n, d, slow))
        assert fast.integers(1 << 62) == slow.integers(1 << 62)


def _pairing_or_none(pairing, n, d, rng):
    try:
        return pairing(n, d, rng)
    except SamplingError:
        return None


@pytest.mark.parametrize("n, d", [(6, 3), (8, 3), (10, 2), (14, 4), (32, 4),
                                  (64, 4), (100, 3), (9, 4), (12, 5), (40, 5)])
def test_rejection_pairing_matches_pair_by_pair_reference(n, d):
    # at d = 5 some seeds exhaust the restart budget (86 of 200 at (12, 5),
    # 20 at (40, 5)), so both sides must raise together there too
    for seed in range(200):
        fast, slow = rng_stream(seed, stream_id=n), rng_stream(seed, stream_id=n)
        got = _pairing_or_none(_pair_stubs_rejection, n, d, fast)
        want = _pairing_or_none(rejection_pairing_reference, n, d, slow)
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)
        assert fast.random() == slow.random()


def test_edges_listing_is_sorted_upper_triangle():
    g = sample_regular_graph(20, 3, rng=rng_stream(3))
    edges = edge_array(g).tolist()
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)
    assert len(edges) == 30
    rebuilt = np.zeros_like(g)
    for u, v in edges:
        rebuilt[u, v] = rebuilt[v, u] = 1
    assert np.array_equal(rebuilt, g)
