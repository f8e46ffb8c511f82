"""Simple d-regular graphs on labeled vertices: storage, sampling, enumeration.

A graph is stored as a dense symmetric 0/1 adjacency matrix (uint8) with
zero diagonal, which gives O(1) edge membership and O(1) application of an
edge switching.  ``RegularGraph`` values are immutable from the caller's
perspective: operations return new graphs, and the long-running jump chain
(see ``rrglab.chain``, which owns the switching rule) mutates only private
copies.
"""

import math
from collections import defaultdict

import numpy as np

# Restarts either pairing stage may spend before raising SamplingError.
_MAX_ATTEMPTS = 1000
# Rejection pairing restarts ~exp((d-1)/2 + (d-1)^2/4) times on average
# before it produces a simple graph; it is used while that stays below
# _MAX_ATTEMPTS / 20, so that exhausting the budget is negligible (d <= 4).
# Compared in log space: the count overflows a float from d = 55.
_LOG_REJECTION_BUDGET = math.log(_MAX_ATTEMPTS / 20.0)

DEFAULT_BURN_IN_FACTOR = 20


class SamplingError(RuntimeError):
    """Raised when the graph sampler exhausts its restart budget."""


class RegularGraph:
    """Immutable simple graph with constant vertex degree."""

    def __init__(self, adjacency, validate=True):
        adj = np.ascontiguousarray(adjacency, dtype=np.uint8)
        if validate:
            _validate_adjacency(adj)
        adj.flags.writeable = False
        self._adj = adj
        self.n_vertices = adj.shape[0]
        self.degree = int(adj[0].sum()) if self.n_vertices else 0

    @classmethod
    def from_edges(cls, n_vertices, edges):
        adj = np.zeros((n_vertices, n_vertices), dtype=np.uint8)
        for u, v in edges:
            if adj[u, v]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u, v] = adj[v, u] = 1
        return cls(adj)

    @property
    def adjacency(self):
        """Read-only adjacency matrix view."""
        return self._adj

    def adjacency_copy(self):
        """Writable copy of the adjacency matrix."""
        out = self._adj.copy()
        out.flags.writeable = True
        return out

    def has_edge(self, u, v):
        return bool(self._adj[u, v])

    def edges(self):
        """Edges as (u, v) with u < v, sorted lexicographically."""
        iu, ju = np.nonzero(np.triu(self._adj, 1))
        return list(zip(iu.tolist(), ju.tolist()))

    def canonical_key(self):
        """Hashable key identifying this labeled graph."""
        n = self.n_vertices
        return self._adj[np.triu_indices(n, 1)].tobytes()

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and np.array_equal(self._adj, other._adj))

    def __hash__(self):
        return hash((self.n_vertices, self.canonical_key()))

    def __repr__(self):
        return (f"RegularGraph(n_vertices={self.n_vertices}, "
                f"degree={self.degree}, edges={self.n_vertices * self.degree // 2})")


def _validate_adjacency(adj):
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if adj.size and (np.diag(adj) != 0).any():
        raise ValueError("graph must be simple (zero diagonal)")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    degs = adj.sum(axis=1)
    if adj.size and (degs != degs[0]).any():
        raise ValueError("graph must be regular (constant degree)")


def sample_regular_graph(n_vertices, degree, *, rng, burn_in=None):
    """Sample an approximately uniform random d-regular graph.

    Draws a simple d-regular graph by stub pairing and then mixes it with
    ``burn_in`` steps of the edge-switching chain (default 20*n*d) to wash
    out residual pairing bias.  ``burn_in`` counts vertex-tuple steps; only
    the Binomial(burn_in, (d/n)^2) of them whose two vertex pairs are edges
    can switch, and only those are drawn (see ``rrglab.chain.run_chain``).
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

    if degree == 0:
        return RegularGraph(np.zeros((n_vertices, n_vertices), dtype=np.uint8))

    if (degree - 1) / 2.0 + (degree - 1) ** 2 / 4.0 <= _LOG_REJECTION_BUDGET:
        adj = _pair_stubs_rejection(n_vertices, degree, rng)
    else:
        adj = _pair_stubs_greedy(n_vertices, degree, rng)

    graph = RegularGraph(adj, validate=False)
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_FACTOR * n_vertices * degree
    if burn_in > 0:
        from .chain import run_chain

        graph, _ = run_chain(graph, burn_in, rng=rng)
    return graph


def _pair_stubs_rejection(n, d, rng):
    """Uniform stub pairing, restarting on any self-loop or repeated edge."""
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_MAX_ATTEMPTS):
        perm = rng.permutation(stubs)
        adj = np.zeros((n, n), dtype=np.uint8)
        ok = True
        for u, v in zip(perm[0::2], perm[1::2]):
            if u == v or adj[u, v]:
                ok = False
                break
            adj[u, v] = adj[v, u] = 1
        if ok:
            return adj
    raise SamplingError(
        f"rejection pairing failed after {_MAX_ATTEMPTS} restarts (n={n}, d={d})")


def _pair_stubs_greedy(n, d, rng):
    """Repeated pairing that re-draws only the colliding stubs.

    Each round shuffles the outstanding stubs and keeps every pair that is
    neither a loop nor a duplicate; leftovers go back into the pool.  A dead
    end (leftover stubs that can never pair) restarts from scratch.
    """
    for _ in range(_MAX_ATTEMPTS):
        adj = np.zeros((n, n), dtype=np.uint8)
        stubs = list(np.repeat(np.arange(n), d))
        dead = False
        while stubs and not dead:
            leftovers = defaultdict(int)
            order = rng.permutation(len(stubs))
            shuffled = [stubs[t] for t in order]
            for u, v in zip(shuffled[0::2], shuffled[1::2]):
                if u != v and not adj[u, v]:
                    adj[u, v] = adj[v, u] = 1
                else:
                    leftovers[int(u)] += 1
                    leftovers[int(v)] += 1
            stubs = [u for u, c in leftovers.items() for _ in range(c)]
            if stubs:
                nodes = list(leftovers)
                dead = all(adj[u, v] for x, u in enumerate(nodes)
                           for v in nodes[x + 1:]) and len(nodes) > 1
                dead = dead or (len(nodes) == 1)
        if not stubs:
            return adj
    raise SamplingError(
        f"greedy pairing failed after {_MAX_ATTEMPTS} restarts (n={n}, d={d})")


def enumerate_regular_graphs(n_vertices, degree):
    """All labeled simple d-regular graphs on n vertices, by backtracking.

    Intended for exhaustive small-space checks (n <= 8, d = 3 gives 19355
    graphs).  Returns a list of ``RegularGraph`` in a deterministic order.
    """
    n, d = n_vertices, degree
    if (n * d) % 2 or d >= n or n <= 0 or d < 0:
        return []
    adj = np.zeros((n, n), dtype=np.uint8)
    residual = [d] * n
    out = []

    def extend(u):
        if u == n:
            if all(r == 0 for r in residual):
                out.append(RegularGraph(adj.copy(), validate=False))
            return
        need = residual[u]
        if need == 0:
            extend(u + 1)
            return
        candidates = [v for v in range(u + 1, n) if residual[v] > 0]
        if len(candidates) < need:
            return
        from itertools import combinations

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
