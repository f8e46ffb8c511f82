"""Jump chain: switchable support, exact invariance, trajectory contracts.

The exact checks ride on exhaustively enumerated state spaces; the
stochastic check exploits that a chain started from the uniform law stays
uniform after any number of steps, so it needs no mixing assumption.
"""

import itertools

import numpy as np
from scipy import stats

from conftest import cycle_adjacency, switchable_tuples, switched_graph
from rrglab import chain
from rrglab._kernels import run_switch_steps
from rrglab.chain import (edge_array, invariance_report, resolve_proposals,
                          run_chain, switchings, tuple_switchable)
from rrglab.graphs import enumerate_regular_graphs
from rrglab.streams import rng_stream


def triangle_count(adj):
    a = adj.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def test_switchable_tuples_match_scan(graph_24_4):
    tuples = switchable_tuples(graph_24_4)
    as_set = {tuple(row) for row in tuples.tolist()}
    assert len(as_set) == len(tuples)
    for i, j, m, n in as_set:
        assert tuple_switchable(i, j, m, n, graph_24_4)
    # reversibility of the support: after the move, the tuple (i,m,j,n)
    # is accepted and undoes it exactly
    for i, j, m, n in sorted(as_set)[:50]:
        g2 = switched_graph(graph_24_4, i, j, m, n)
        assert tuple_switchable(i, m, j, n, g2)
        assert np.array_equal(switched_graph(g2, i, m, j, n), graph_24_4)


def test_switchings_name_each_move_once(graph_24_4):
    # every tuple of the support, grouped by the graph it switches to,
    # falls in a group of four, and each group holds exactly one row
    rows = switchings(graph_24_4)
    moves = {}
    for row in switchable_tuples(graph_24_4):
        key = switched_graph(graph_24_4, *row).tobytes()
        moves.setdefault(key, set()).add(tuple(row))
    assert {len(spellings) for spellings in moves.values()} == {4}
    assert len(rows) == len(moves)
    for row in rows.tolist():
        key = switched_graph(graph_24_4, *row).tobytes()
        assert tuple(row) in moves.pop(key)
    assert rows.tolist() == sorted(rows.tolist())


def test_stacked_scan_is_the_graph_by_graph_scan(monkeypatch):
    # a stack's rows are each graph's switchings rows in stack order, with
    # the stack index as owner, whether a scan block holds the whole stack,
    # 7 of its graphs (12 edges x 24 directed edges each) or 4 edges of one
    graphs = enumerate_regular_graphs(8, 3)[::1000]
    expected = [switchings(g) for g in graphs]
    owners = np.repeat(np.arange(len(graphs)), [len(m) for m in expected])
    for block in (1 << 22, 7 * 12 * 24, 4 * 24):
        monkeypatch.setattr(chain, "_SCAN_BLOCK", block)
        owner, moves = chain._stacked_switchings(np.stack(graphs))
        assert np.array_equal(moves, np.concatenate(expected)), block
        assert np.array_equal(owner, owners), block
        assert all(np.array_equal(switchings(g), m)
                   for g, m in zip(graphs, expected)), block


def test_hexagonal_state_space_has_no_moves():
    report = invariance_report(6, 3)
    assert report.n_graphs == 70
    assert report.n_transitions == 0
    assert report.reversible


def test_invariance_on_cubic_eight():
    report = invariance_report(8, 3)
    assert report.n_graphs == 19355
    assert report.n_transitions == 355_320
    assert report.reversible


def test_run_chain_is_block_size_invariant(graph_24_4, monkeypatch):
    results = []
    for b in (1, 7, 64, 4096):
        monkeypatch.setattr(chain, "BLOCK_SIZE", b)
        results.append(run_chain(graph_24_4, 5000, rng=rng_stream(21)))
    final, accepted = results[0]
    assert accepted > 0
    for g, a in results[1:]:
        assert np.array_equal(g, final)
        assert a == accepted


def test_run_chain_preserves_regularity(graph_24_4):
    final, _ = run_chain(graph_24_4, 2000, rng=rng_stream(4))
    assert final.dtype == np.uint8 and final.flags.c_contiguous
    assert not final.flags.writeable
    assert (final.sum(axis=0) == 4).all()
    assert not final.diagonal().any()


def test_rejected_tuple_leaves_graph_unchanged():
    # on the hexagon the cross pair {1, 2} of (0, 1, 2, 3) is an edge; the
    # sorted edge array puts {0, 1} in slot 0 and {2, 3} in slot 3
    graph = cycle_adjacency(6)
    adj = graph.copy()
    edges = edge_array(adj)
    codes = np.array([[0, 6]], dtype=np.int64)
    assert resolve_proposals(edges, codes).tolist() == [[0, 1, 2, 3]]
    assert not tuple_switchable(0, 1, 2, 3, graph)
    assert run_switch_steps(adj, codes, edges) == 0
    assert np.array_equal(adj, graph)
    assert np.array_equal(edges, edge_array(graph))


def test_edge_codes_thin_the_tuple_chain_exactly(graph_24_4):
    """All (N*d)^2 code pairs name each ordered pair of directed edges once,
    and the kernel accepts exactly the switchable tuples among them."""
    adj = graph_24_4
    edges = edge_array(adj)
    n_codes = 24 * 4
    assert edges.shape == (n_codes // 2, 2)
    codes = np.array(list(itertools.product(range(n_codes), repeat=2)))
    tuples = resolve_proposals(edges, codes)
    directed = np.argwhere(adj).tolist()
    assert sorted(tuples.tolist()) == [
        first + second for first, second in itertools.product(directed, repeat=2)]

    accepted = []
    for row, (i, j, m, n) in zip(codes, tuples):
        step_adj, step_edges = adj.copy(), edges.copy()
        if run_switch_steps(step_adj, row[None, :], step_edges):
            accepted.append((i, j, m, n))
            assert np.array_equal(step_adj, switched_graph(
                graph_24_4, i, j, m, n))
        else:
            assert np.array_equal(step_adj, adj)
            assert np.array_equal(step_edges, edges)
    assert sorted(accepted) == sorted(map(tuple, switchable_tuples(graph_24_4)))


def test_one_code_pair_applied_twice_restores_the_graph(graph_24_4):
    adj = graph_24_4.copy()
    edges = edge_array(adj)
    rows = rng_stream(8).integers(0, 96, size=(100, 1, 2), dtype=np.int64)
    codes = next(row for row in rows if tuple_switchable(
        *resolve_proposals(edges, row)[0], graph_24_4))
    (i, j, m, n), = resolve_proposals(edges, codes).tolist()
    assert run_switch_steps(adj, codes, edges) == 1
    # the edge array stays in step with adj, and the codes now name (i,m,j,n)
    assert sorted(map(sorted, edges.tolist())) == edge_array(adj).tolist()
    assert resolve_proposals(edges, codes).tolist() == [[i, m, j, n]]
    assert run_switch_steps(adj, codes, edges) == 1
    assert np.array_equal(adj, graph_24_4)
    assert np.array_equal(edges, edge_array(graph_24_4))


def test_uniform_start_stays_uniform_on_cubic_eight():
    """One transition applied to the uniform law leaves it uniform.

    Start 2500 chains at independent uniform draws from the enumerated
    state space, run each a short burst, and chi-square the final
    triangle-class counts against the enumerated class proportions.
    """
    graphs = enumerate_regular_graphs(8, 3)
    class_totals = {}
    for g in graphs:
        t = triangle_count(g)
        class_totals[t] = class_totals.get(t, 0) + 1
    classes = sorted(class_totals)

    n_chains, burst = 2500, 40
    rng = rng_stream(14)
    starts = rng.integers(0, len(graphs), size=n_chains)
    observed = {t: 0 for t in classes}
    for k in range(n_chains):
        final, _ = run_chain(graphs[starts[k]], burst,
                             rng=rng_stream(15, stream_id=k))
        observed[triangle_count(final)] += 1

    expected = np.array([class_totals[t] / len(graphs) * n_chains
                         for t in classes])
    counts = np.array([observed[t] for t in classes], dtype=float)
    keep = expected >= 10
    counts = np.append(counts[keep], counts[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 1e-3
