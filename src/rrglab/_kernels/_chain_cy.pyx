# cython: boundscheck=False, wraparound=False, initializedcheck=False
"""Compiled inner loop for the edge-switching jump chain.

Operates on a dense symmetric 0/1 adjacency matrix (uint8, C-contiguous)
and a pre-drawn block of candidate vertex 4-tuples.  A tuple (i, j, m, n)
is accepted when (i, j) and (m, n) are edges and none of the four cross
pairs (i,m), (i,n), (j,m), (j,n) is an edge; acceptance replaces edges
{i,j}, {m,n} by {i,m}, {j,n}.  Coincident vertices are rejected
automatically because the diagonal is zero.

The pure-Python module ``chain_py`` implements the same contract; both
consume one tuple per chain step so trajectories are identical for a
given tuple block.
"""

BACKEND = "cython"


def run_switch_steps(unsigned char[:, ::1] adj, long long[:, ::1] tuples):
    """Advance the chain by one step per tuple row, mutating ``adj``.

    Returns the number of accepted switches.
    """
    cdef Py_ssize_t b = tuples.shape[0]
    cdef Py_ssize_t t, i, j, m, n
    cdef long long accepted = 0
    with nogil:
        for t in range(b):
            i = <Py_ssize_t> tuples[t, 0]
            j = <Py_ssize_t> tuples[t, 1]
            m = <Py_ssize_t> tuples[t, 2]
            n = <Py_ssize_t> tuples[t, 3]
            if (adj[i, j] != 0 and adj[m, n] != 0
                    and adj[i, m] == 0 and adj[i, n] == 0
                    and adj[j, m] == 0 and adj[j, n] == 0):
                adj[i, j] = 0
                adj[j, i] = 0
                adj[m, n] = 0
                adj[n, m] = 0
                adj[i, m] = 1
                adj[m, i] = 1
                adj[j, n] = 1
                adj[n, j] = 1
                accepted += 1
    return accepted

