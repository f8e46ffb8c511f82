"""Pure-Python fallback for the switching-chain inner loop.

Same contract as the compiled module ``_chain_cy``: one candidate tuple per
chain step, identical acceptance rule and edge updates, so the two backends
produce identical trajectories from identical tuple blocks.
"""

BACKEND = "python"


def run_switch_steps(adj, tuples):
    """Advance the chain by one step per tuple row, mutating ``adj``.

    Returns the number of accepted switches.
    """
    accepted = 0
    a = adj
    for i, j, m, n in tuples:
        if (a[i, j] != 0 and a[m, n] != 0
                and a[i, m] == 0 and a[i, n] == 0
                and a[j, m] == 0 and a[j, n] == 0):
            a[i, j] = a[j, i] = 0
            a[m, n] = a[n, m] = 0
            a[i, m] = a[m, i] = 1
            a[j, n] = a[n, j] = 1
            accepted += 1
    return accepted

