"""Ranking losses and the interest-diversity regularizer, as tape nodes.

`Trainer._loss` weights them into the one loss a step backpropagates;
`trainer.LOSS_TERMS` names the values a step logs.
"""

from . import autodiff as ag
from .autodiff import Tensor


def bpr_loss(anchor_table, item_table, anchors, pos, neg):
    """Mean of -log sigmoid(s(a, p) - s(a, n)) over a batch of triples.

    s is the dot product of an anchor row and an item row; anchors, pos and
    neg are parallel index arrays. The loss is one tape node per call,
    computed as softplus(s(a, n) - s(a, p)) so large score gaps stay finite.
    """
    if len(anchors) == 0:
        raise ValueError("empty batch")
    return ag.bpr_pairs(anchor_table, item_table, anchors, pos, neg)


def interest_regularizer(interests, user_idx, threshold):
    """Per-user mean of masked pairwise interest similarities.

    interests is an (n, M, d) tensor from `GroupRecommender.interests`,
    and user_idx indexes its rows (not user ids), each row at most once:
    repeats raise ValueError. For those rows, sums cosine(i_p, i_q) over
    pairs p < q whose |cosine| is at least the threshold; the mask is
    computed from forward values only and is constant under backward.
    threshold 0 keeps every pair. Returns a scalar tensor, zero when there
    is a single interest.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if interests.shape[1] < 2 or len(user_idx) == 0:
        return Tensor(0.0)
    return ag.mean_pair_cosine(interests, user_idx, threshold)
