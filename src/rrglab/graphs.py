"""Simple d-regular graphs on labeled vertices: sampling and enumeration.

A graph is its adjacency matrix: a read-only, C-contiguous, symmetric 0/1
uint8 (N, N) array with zero diagonal, which gives O(1) edge membership.
N is ``len(adj)`` and d is ``int(adj[0].sum())``; two graphs are equal
when ``np.array_equal`` says so.  The sampler, the enumeration, the jump
chain (``rrglab.chain``, which owns the switching rule and mutates only a
private copy) and the graph reader (``rrglab.io``) return such arrays.
The sampler always follows its pairing with the same burn-in, a fixed
multiple ``_BURN_IN_FACTOR`` of N*d switching steps.
"""

import math
from itertools import combinations

import numpy as np

# Restarts either pairing stage may spend before raising SamplingError.
_MAX_ATTEMPTS = 1000
# Rejection pairing restarts ~exp((d-1)/2 + (d-1)^2/4) times on average
# before it produces a simple graph; it is used while that stays below
# _MAX_ATTEMPTS / 20, so that exhausting the budget is negligible (d <= 4).
# Compared in log space: the count overflows a float from d = 55.
_LOG_REJECTION_BUDGET = math.log(_MAX_ATTEMPTS / 20.0)

# The burn-in runs this many times N*d vertex-tuple switching steps.
_BURN_IN_FACTOR = 20


class SamplingError(RuntimeError):
    """Raised when the graph sampler exhausts its restart budget."""


def _read_only(adj):
    adj.flags.writeable = False
    return adj


def sample_regular_graph(n_vertices, degree, *, rng):
    """Sample an approximately uniform random d-regular graph.

    Draws a simple d-regular graph by stub pairing and then mixes it with a
    burn-in of ``_BURN_IN_FACTOR``*n*d vertex-tuple steps of the
    edge-switching chain to wash out residual pairing bias.  Only the
    Binomial(steps, (d/n)^2) of them whose two vertex pairs are edges can
    switch, and only those are drawn (see ``rrglab.chain.run_chain``).
    The pairing stage restarts on any self-loop or multi-edge (exactly
    uniform before burn-in) while its expected restart count is small, and
    otherwise pairs greedily, re-drawing only colliding stubs.

    Raises ``SamplingError`` when the restart budget is exhausted, and
    ``ValueError`` for an infeasible (n, d).
    """
    if n_vertices <= 0:
        raise ValueError("need at least one vertex")
    if degree < 0 or degree >= n_vertices:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={degree} n={n_vertices}")
    if (n_vertices * degree) % 2:
        raise ValueError(f"n*d must be even, got n={n_vertices} d={degree}")

    if (degree - 1) / 2.0 + (degree - 1) ** 2 / 4.0 <= _LOG_REJECTION_BUDGET:
        adj = _pair_stubs_rejection(n_vertices, degree, rng)
    else:
        adj = _pair_stubs_greedy(n_vertices, degree, rng)

    from .chain import run_chain

    graph, _ = run_chain(_read_only(adj),
                         _BURN_IN_FACTOR * n_vertices * degree, rng=rng)
    return graph


def _pair_stubs_rejection(n, d, rng):
    """Uniform stub pairing, one ``rng.permutation`` of the stubs an
    attempt, restarting on any self-loop or repeated unordered pair."""
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_MAX_ATTEMPTS):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        if (u == v).any() or (key[1:] == key[:-1]).any():
            continue
        adj = np.zeros((n, n), dtype=np.uint8)
        adj[u, v] = adj[v, u] = 1
        return adj
    raise SamplingError(
        f"rejection pairing failed after {_MAX_ATTEMPTS} restarts (n={n}, d={d})")


def _pair_stubs_greedy(n, d, rng):
    """Repeated pairing that re-draws only the colliding stubs.

    Each round shuffles the outstanding stubs with one ``rng.permutation``
    draw and keeps every pair that is not a loop, not already an edge, and
    the first copy of its unordered pair in the round; the stubs of the
    other pairs go back into the pool in order of first appearance, with
    their multiplicity.  A dead end (one leftover vertex, or leftover
    vertices that are all pairwise adjacent) restarts from scratch.
    """
    for _ in range(_MAX_ATTEMPTS):
        adj = np.zeros((n, n), dtype=np.uint8)
        stubs = np.repeat(np.arange(n), d)
        while stubs.size:
            shuffled = stubs[rng.permutation(stubs.size)]
            u, v = shuffled[0::2], shuffled[1::2]
            key = np.minimum(u, v) * n + np.maximum(u, v)
            first = np.zeros(u.size, dtype=bool)
            first[np.unique(key, return_index=True)[1]] = True
            keep = first & (u != v) & (adj[u, v] == 0)
            adj[u[keep], v[keep]] = adj[v[keep], u[keep]] = 1
            rejected = np.stack([u[~keep], v[~keep]], axis=1).reshape(-1)
            nodes, where, counts = np.unique(rejected, return_index=True,
                                             return_counts=True)
            by_appearance = np.argsort(where)
            stubs = np.repeat(nodes[by_appearance], counts[by_appearance])
            k = nodes.size
            if k == 1 or adj[np.ix_(nodes, nodes)].sum() == k * (k - 1):
                break
        if not stubs.size:
            return adj
    raise SamplingError(
        f"greedy pairing failed after {_MAX_ATTEMPTS} restarts (n={n}, d={d})")


def enumerate_regular_graphs(n_vertices, degree):
    """All labeled simple d-regular graphs on n vertices, by backtracking.

    Intended for exhaustive small-space checks (n <= 8, d = 3 gives 19355
    graphs).  Returns a list of adjacency arrays in a deterministic order.
    """
    n, d = n_vertices, degree
    if (n * d) % 2 or d >= n or n <= 0 or d < 0:
        return []
    adj = np.zeros((n, n), dtype=np.uint8)
    residual = [d] * n
    out = []

    def extend(u):
        # each vertex zeroes its residual on its own turn, and later ones
        # pick only vertices above them, so every leaf is regular
        if u == n:
            out.append(_read_only(adj.copy()))
            return
        need = residual[u]
        if need == 0:
            extend(u + 1)
            return
        candidates = [v for v in range(u + 1, n) if residual[v] > 0]
        if len(candidates) < need:
            return
        for combo in combinations(candidates, need):
            for v in combo:
                adj[u, v] = adj[v, u] = 1
                residual[v] -= 1
            residual[u] = 0
            extend(u + 1)
            residual[u] = need
            for v in combo:
                adj[u, v] = adj[v, u] = 0
                residual[v] += 1

    extend(0)
    return out
