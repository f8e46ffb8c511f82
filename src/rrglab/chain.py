"""Markov jump chain on d-regular graphs driven by random edge switchings.

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

with A' the switched graph.  ``invariance_report`` verifies detailed
balance, and with it stationarity, exactly on exhaustively enumerated state
spaces;
``rrglab.flow.switch_generator_stieltjes`` evaluates Q on Stieltjes
observables.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import RegularGraph, enumerate_regular_graphs

# Proposals are drawn from the RNG in blocks of this many; any block size
# yields the same trajectory because draws are consumed element by element.
BLOCK_SIZE = 1 << 15


def run_chain(graph, n_steps, *, rng):
    """Run ``n_steps`` vertex-tuple steps; returns (final graph, accepted count).

    ``n_steps`` counts steps of the vertex-tuple chain.  Only the
    Binomial(n_steps, (d/N)^2) steps whose two pairs are edges are drawn,
    as pairs of directed-edge codes in [0, N*d); the law of the final graph
    is that of ``n_steps`` tuple steps.  Deterministic given (graph,
    n_steps, rng state): the draws do not depend on ``BLOCK_SIZE``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_steps == 0:
        return graph, 0
    n, d = graph.n_vertices, graph.degree
    remaining = int(rng.binomial(n_steps, (d / n) ** 2))
    adj = graph.adjacency_copy()
    edges = edge_array(adj)
    accepted = 0
    while remaining:
        block = min(BLOCK_SIZE, remaining)
        proposals = rng.integers(0, n * d, size=(block, 2), dtype=np.int64)
        accepted += _kernels.run_switch_steps(adj, proposals, edges)
        remaining -= block
    return RegularGraph(adj, validate=False), accepted


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


def switchable_tuples(graph):
    """All tuples (i, j, m, n) accepted by the jump chain, as an (K, 4) array.

    The support is ordered pairs of directed edges whose four cross pairs
    are non-adjacent; coincident vertices never appear because each edge's
    far endpoint would make a cross pair adjacent.  Rows are sorted in the
    lexicographic tuple order of the dense N^4 scan.  The (N*d)^2 indicator
    scan runs in fixed-size row blocks to bound peak memory.
    """
    a = graph.adjacency.astype(bool)
    src, dst = np.nonzero(graph.adjacency)
    m, n = src[None, :], dst[None, :]
    blocks = []
    block = max(1, (1 << 22) // max(1, src.size))
    for start in range(0, src.size, block):
        i = src[start:start + block, None]
        j = dst[start:start + block, None]
        ok = ~(a[i, m] | a[i, n] | a[j, m] | a[j, n])
        p, q = np.nonzero(ok)
        blocks.append(np.stack([src[start + p], dst[start + p],
                                src[q], dst[q]], axis=1))
    return np.concatenate(blocks).astype(np.int64)


def tuple_switchable(i, j, m, n, graph):
    """1 if (i,j) and (m,n) are edges with no cross edges among the 4 cross pairs.

    This is the acceptance rule of the jump chain: A_ij A_mn (1-A_im)(1-A_in)
    (1-A_jm)(1-A_jn); coincident vertices always yield 0 because the diagonal
    vanishes.
    """
    a = graph.adjacency
    return int(a[i, j] and a[m, n]
               and not (a[i, m] or a[i, n] or a[j, m] or a[j, n]))


def switched_graph(graph, i, j, m, n):
    """The result of the accepted switching (i,j),(m,n) -> (i,m),(j,n).

    The reversed tuple (i,m,j,n) is accepted on the result and undoes it.
    """
    adj = graph.adjacency_copy()
    adj[i, j] = adj[j, i] = adj[m, n] = adj[n, m] = 0
    adj[i, m] = adj[m, i] = adj[j, n] = adj[n, j] = 1
    return RegularGraph(adj, validate=False)


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
    computes all jump-chain transitions, and checks that the transition
    multiset is exactly symmetric: each move and its inverse occur equally
    often, so the uniform measure is reversible.  Reversibility implies
    stationarity: a symmetric multiset gives every graph B equal in- and
    out-degree, so for every observable f
    sum_A Qf(A) = sum_B (indeg - outdeg)(B) f(B) / (8 N d) = 0.
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
    bits = np.stack([g.adjacency[triu] for g in graphs]).astype(np.int64)
    keys = bits @ weights

    order = np.argsort(keys)
    sorted_keys = keys[order]

    src_parts, dst_parts = [], []
    for g_idx, g in enumerate(graphs):
        tuples = switchable_tuples(g)
        if not len(tuples):
            continue
        i, j, m, k = tuples.T
        flips = ((np.int64(1) << bit_of[i, j]) ^ (np.int64(1) << bit_of[m, k])
                 ^ (np.int64(1) << bit_of[i, m]) ^ (np.int64(1) << bit_of[j, k]))
        src_parts.append(np.full(len(tuples), g_idx, dtype=np.int64))
        dst_parts.append(keys[g_idx] ^ flips)

    if src_parts:
        src = np.concatenate(src_parts)
        dst_keys = np.concatenate(dst_parts)
        pos = np.searchsorted(sorted_keys, dst_keys)
        if not (pos < n_graphs).all() or not (sorted_keys[pos] == dst_keys).all():
            raise AssertionError("switching left the enumerated state space")
        dst = order[pos]
    else:
        src = dst = np.empty(0, dtype=np.int64)

    # Detailed balance w.r.t. the uniform measure: the multiset of
    # (source, destination) pairs equals the multiset of reversed pairs.
    forward = np.sort(src * n_graphs + dst)
    backward = np.sort(dst * n_graphs + src)
    reversible = bool(np.array_equal(forward, backward))
    return InvarianceReport(
        n_vertices=n, degree=d, n_graphs=n_graphs, n_transitions=len(src),
        reversible=reversible)
