"""Markov jump chain on d-regular graphs driven by random edge switchings.

A graph is its read-only uint8 adjacency array (see ``rrglab.graphs``).
Each step draws a vertex 4-tuple (i, j, m, n) uniformly from [0, N)^4 and,
when (i,j) and (m,n) are edges with none of the four cross pairs adjacent,
replaces the edges {i,j}, {m,n} by {i,m}, {j,n}.  Every accepted move is its
own inverse under the reversed tuple, so the chain is reversible, and
reversibility implies that the uniform distribution on simple d-regular
graphs is stationary (see ``invariance_report``).

``run_chain`` samples this law without drawing the tuples that cannot
switch.  A d-regular graph has N*d directed edges whatever its state, so a
uniform pair (i, j) is an edge with probability d/N, and among ``n_steps``
tuple steps the number K whose (i,j) and (m,n) are both edges is
Binomial(n_steps, (d/N)^2), independent of the trajectory.  Each of those K
steps is a pair of independent uniform directed edges; the other steps
leave the graph unchanged.  So the chain draws K first, then K pairs of
directed-edge codes, which the kernel (``rrglab._kernels``) resolves
through an edge array it keeps in step with the adjacency matrix.

The generator of the chain acting on an observable f is

    Qf(A) = (1/(8*N*d)) * sum_{i,j,m,n} I(i,j,m,n; A) * (f(A') - f(A)),

with A' the switched graph.  Four tuples name each move, so Q is also
1/(2*N*d) times a sum over the moves, which ``switchings`` lists.
``invariance_report`` verifies detailed balance, and with it
stationarity, exactly on exhaustively enumerated state spaces;
``rrglab.flow.switch_generator_stieltjes`` evaluates Q on Stieltjes
observables.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import _read_only, enumerate_regular_graphs

# Proposals are drawn from the RNG in blocks of this many; any block size
# yields the same trajectory because draws are consumed element by element.
BLOCK_SIZE = 1 << 15
# The move scan's block, in (graph, edge, directed edge) triples; any block
# size gives the same rows.
_SCAN_BLOCK = 1 << 22


def run_chain(graph, n_steps, *, rng):
    """Run ``n_steps`` vertex-tuple steps; returns (final graph, accepted count).

    ``n_steps`` counts steps of the vertex-tuple chain.  Only the
    Binomial(n_steps, (d/N)^2) steps whose two pairs are edges are drawn,
    as pairs of directed-edge codes in [0, N*d); the law of the final graph
    is that of ``n_steps`` tuple steps.  Deterministic given (graph,
    n_steps, rng state): the draws do not depend on ``BLOCK_SIZE``.  The
    steps switch a private copy, never ``graph`` itself.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_steps == 0:
        return graph, 0
    n, d = len(graph), int(graph[0].sum())
    remaining = int(rng.binomial(n_steps, (d / n) ** 2))
    adj = graph.copy()
    edges = edge_array(adj)
    accepted = 0
    while remaining:
        block = min(BLOCK_SIZE, remaining)
        proposals = rng.integers(0, n * d, size=(block, 2), dtype=np.int64)
        accepted += _kernels.run_switch_steps(adj, proposals, edges)
        remaining -= block
    return _read_only(adj), accepted


def edge_array(adjacency):
    """The edges {u, v}, u < v, of an adjacency matrix as a sorted (E, 2) array."""
    u, v = np.divmod(np.flatnonzero(adjacency), adjacency.shape[0])
    upper = u < v
    return np.stack([u[upper], v[upper]], axis=1)


def resolve_proposals(edges, proposals):
    """The tuples (i, j, m, n) that rows of directed-edge codes name, as (K, 4).

    Code c names the directed edge from flat entry c of the edge array to
    flat entry c ^ 1, i.e. slot c >> 1 in orientation c & 1; row (c1, c2)
    names the tuple whose first pair is the edge of c1 and whose second
    pair is the edge of c2.
    """
    flat = edges.reshape(-1)
    tail, head = flat[proposals], flat[proposals ^ 1]
    return np.stack([tail[:, 0], head[:, 0], tail[:, 1], head[:, 1]], axis=1)


def switchings(graph):
    """Every move of the jump chain once, as an (S, 4) array of (i, j, k, l).

    The move (i, j, k, l) replaces the edges {i, j}, {k, l} by {i, k},
    {j, l}.  Two edges can switch when none of their four cross pairs is an
    edge (so they share no vertex), and then both pairings of the second
    edge are moves.  Of the chain's four tuples (i,j,k,l), (k,l,i,j),
    (j,i,l,k) and (l,k,j,i) of a move, the row is the one with i < j and
    {i, j} before {k, l} in ``edge_array`` order.  The scan pairs each edge
    {i, j} with the directed edges (k, l) in lexicographic order, so the
    rows come out sorted (see ``_stacked_switchings``).
    """
    return _stacked_switchings(graph[None])[1]


def _stacked_switchings(graphs):
    """The moves of each graph of a (G, N, N) stack of d-regular graphs.

    Returns (owner, moves): ``moves`` holds each graph's ``switchings``
    rows, graph after graph, and ``owner`` the stack index of each row's
    graph.  The scan runs over (graph, edge, directed edge) triples in
    blocks of about ``_SCAN_BLOCK`` to bound peak memory: whole graphs at a
    time when one graph's triples fit in a block, otherwise row blocks of
    one graph's edges.
    """
    count, n = graphs.shape[:2]
    a = graphs.astype(bool)
    # every graph has the same number of edges, so these reshape by graph;
    # nonzero's row-major order is edge_array's order within each graph
    i, j = (x.reshape(count, -1) for x in np.nonzero(np.triu(a, 1))[1:])
    src, dst = (x.reshape(count, -1) for x in np.nonzero(a)[1:])
    rank = np.minimum(src, dst) * n + np.maximum(src, dst)
    n_edges, n_arcs = i.shape[1], max(1, src.shape[1])
    edge_block = max(1, min(n_edges, _SCAN_BLOCK // n_arcs))
    graph_block = max(1, _SCAN_BLOCK // (edge_block * n_arcs))
    owners, blocks = [], []
    for g0 in range(0, count, graph_block):
        gs = slice(g0, g0 + graph_block)
        ids = np.arange(g0, min(g0 + graph_block, count))[:, None]
        for e0 in range(0, n_edges, edge_block):
            ei, ej = i[gs, e0:e0 + edge_block], j[gs, e0:e0 + edge_block]
            near = a[ids, ei] | a[ids, ej]
            ok = ~(np.take_along_axis(near, src[gs, None], axis=2)
                   | np.take_along_axis(near, dst[gs, None], axis=2))
            ok &= rank[gs, None] > (ei * n + ej)[..., None]
            # flat indices: row r = g * edges + e of (ei, ej), arc g * arcs + q
            row, q = np.divmod(np.flatnonzero(ok), n_arcs)
            g = row // ok.shape[1]
            arc = g * n_arcs + q
            owners.append(g + g0)
            blocks.append(np.stack([np.take(ei, row), np.take(ej, row),
                                    np.take(src[gs], arc),
                                    np.take(dst[gs], arc)], axis=1))
    return (np.concatenate(owners),
            np.concatenate(blocks).astype(np.int64, copy=False))


def tuple_switchable(i, j, m, n, a):
    """1 if (i,j) and (m,n) are edges with no cross edges among the 4 cross pairs.

    This is the acceptance rule of the jump chain: A_ij A_mn (1-A_im)(1-A_in)
    (1-A_jm)(1-A_jn); coincident vertices always yield 0 because the diagonal
    vanishes.
    """
    return int(a[i, j] and a[m, n]
               and not (a[i, m] or a[i, n] or a[j, m] or a[j, n]))


@dataclass(frozen=True)
class InvarianceReport:
    """Exhaustive reversibility check on a small state space."""

    n_vertices: int
    degree: int
    n_graphs: int
    n_transitions: int
    reversible: bool


def invariance_report(n_vertices, degree):
    """Verify detailed balance, hence uniform invariance, exhaustively.

    Enumerates every labeled d-regular graph on ``n_vertices`` vertices,
    lists the moves of each once (``switchings``, all graphs in one stacked
    scan; the chain's four tuples per move scale every count alike), and
    checks that the transition multiset is exactly symmetric: each move and
    its inverse occur equally often, so the uniform measure is reversible.
    A move that leaves the enumerated state space reads as not reversible.
    Reversibility implies stationarity: a symmetric multiset gives every
    graph B equal in- and out-degree, so for every observable f
    sum_A Qf(A) = sum_B (indeg - outdeg)(B) f(B) / (2 N d) = 0.
    """
    graphs = enumerate_regular_graphs(n_vertices, degree)
    if not graphs:
        raise ValueError(f"no {degree}-regular graphs on {n_vertices} vertices")
    n, d = n_vertices, degree
    n_graphs = len(graphs)

    # Pack each graph's upper triangle into an integer so a switching is a
    # 4-bit XOR; needs n*(n-1)/2 <= 63, plenty for exhaustive sizes.
    triu = np.triu_indices(n, 1)
    n_bits = len(triu[0])
    if n_bits > 63:
        raise ValueError(f"state space too large to pack (n={n})")
    bit_of = np.zeros((n, n), dtype=np.int64)
    bit_of[triu] = np.arange(n_bits)
    bit_of = bit_of + bit_of.T
    weights = np.int64(1) << np.arange(n_bits, dtype=np.int64)
    stack = np.stack(graphs)
    keys = stack[:, triu[0], triu[1]].astype(np.int64) @ weights

    owner, moves = _stacked_switchings(stack)
    i, j, k, l = moves.T
    flips = ((np.int64(1) << bit_of[i, j]) ^ (np.int64(1) << bit_of[k, l])
             ^ (np.int64(1) << bit_of[i, k]) ^ (np.int64(1) << bit_of[j, l]))
    src = keys[owner]
    dst = src ^ flips

    # Detailed balance w.r.t. the uniform measure: the multiset of
    # (source, destination) key pairs equals the multiset of reversed pairs;
    # a destination outside the state space is never a source.
    forward = np.lexsort((dst, src))
    backward = np.lexsort((src, dst))
    reversible = bool(np.array_equal(src[forward], dst[backward])
                      and np.array_equal(dst[forward], src[backward]))
    return InvarianceReport(
        n_vertices=n, degree=d, n_graphs=n_graphs, n_transitions=len(src),
        reversible=reversible)
