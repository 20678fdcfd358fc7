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
    if n_layers == 0:
        return users0, items0
    us, vs = [users0], [items0]
    for _ in range(n_layers):
        u_next = ag.spmm(adj, vs[-1])
        vs.append(ag.spmm(adj.T, us[-1]))
        us.append(u_next)
    return ag.weighted_sum(*((1.0, u) for u in us)), ag.weighted_sum(*((1.0, v) for v in vs))

