"""Linear embedding propagation on the normalized user-item train graph."""

from . import autodiff as ag


def propagate(adj, users0, items0, n_layers):
    """Run n_layers of neighbor averaging and sum the layer outputs.

    Each layer maps the previous pair through the normalized bipartite
    adjacency, with no transforms or nonlinearities; the returned pair is
    the unweighted sum over layers 0..n_layers. The layers and both sums are
    one tape op, autodiff.propagate, which runs the layers, and the adjoint
    in Horner form, as two chains on two lanes. n_layers=0 is the identity and
    returns the inputs themselves, which is what the plain
    matrix-factorization baseline runs.
    """
    if n_layers < 0:
        raise ValueError("layer count must be >= 0")
    if n_layers == 0:
        return users0, items0
    return ag.propagate(adj, users0, items0, n_layers)
