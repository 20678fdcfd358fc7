"""Linear embedding propagation on the normalized user-item train graph."""

from . import autodiff as ag


def propagate(adj, users0, items0, n_layers):
    """Run n_layers of neighbor averaging and sum the layer outputs.

    Each layer maps the previous pair through the normalized bipartite
    adjacency, with no transforms or nonlinearities; the returned pair is
    the unweighted sum over layers 0..n_layers. n_layers=0 is the identity,
    which is what the plain matrix-factorization baseline runs.
    """
    if n_layers < 0:
        raise ValueError("layer count must be >= 0")
    u_cur, v_cur = users0, items0
    u_acc, v_acc = users0, items0
    for _ in range(n_layers):
        u_next = ag.spmm(adj, v_cur)
        v_next = ag.spmm(adj.T, u_cur)
        u_acc = ag.add(u_acc, u_next)
        v_acc = ag.add(v_acc, v_next)
        u_cur, v_cur = u_next, v_next
    return u_acc, v_acc

