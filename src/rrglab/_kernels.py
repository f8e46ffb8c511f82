"""Inner loop of the edge-switching chain.

A proposal is a pair of directed-edge codes into an (E, 2) edge array that
lists each undirected edge once: code c names slot c >> 1 with orientation
c & 1, that is the directed edge from flat entry c of the array to flat
entry c ^ 1.  The kernel keeps the edge array in step with the adjacency
matrix, so a state-free block of uniform codes is a block of uniform pairs
of directed edges of whatever graph the chain has reached.
"""

BACKEND = "python"


def run_switch_steps(adj, proposals, edges):
    """Apply one switching proposal per row, mutating ``adj`` and ``edges``.

    Row (c1, c2) resolves to the tuple (i, j, m, n) with (i, j) the edge of
    code c1 and (m, n) the edge of code c2.  It is accepted when none of the
    four cross pairs (i,m), (i,n), (j,m), (j,n) is an edge, which also
    rejects every coincidence of vertices; the switch replaces {i,j}, {m,n}
    by {i,m}, {j,n}.  Slot c1 >> 1 keeps i and takes m, slot c2 >> 1 keeps n
    and takes j, so the same row then resolves to the reversed tuple
    (i, m, j, n) and applying it again restores both arrays.  Both arrays
    must be C-contiguous; the loop works on flat views of them.

    Returns the number of accepted switches.
    """
    if not (adj.flags.c_contiguous and edges.flags.c_contiguous):
        raise ValueError("adj and edges must be C-contiguous")
    size = adj.shape[0]
    a = adj.reshape(-1)
    e = edges.reshape(-1)
    accepted = 0
    for c1, c2 in proposals.tolist():
        i, j, m, n = int(e[c1]), int(e[c1 ^ 1]), int(e[c2]), int(e[c2 ^ 1])
        row_i, row_j = i * size, j * size
        if a[row_i + m] or a[row_i + n] or a[row_j + m] or a[row_j + n]:
            continue
        row_m, row_n = m * size, n * size
        a[row_i + j] = a[row_j + i] = a[row_m + n] = a[row_n + m] = 0
        a[row_i + m] = a[row_m + i] = a[row_j + n] = a[row_n + j] = 1
        e[c1 ^ 1] = m
        e[c2] = j
        accepted += 1
    return accepted
