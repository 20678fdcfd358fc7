"""BPR triple sampling over train edges."""

import logging

import numpy as np

from .datasets import TRAIN, edge_keys, in_sorted

log = logging.getLogger(__name__)


class TripleSampler:
    """Draws (anchor, positive, negative) triples for one anchor kind.

    Anchors are drawn uniformly from those with at least one train edge;
    positives uniformly from the anchor's train items; negatives uniformly
    from items outside the anchor's train set, by rejection in vector rounds
    that redraw only the rejected slots. Anchors that interact with every
    item cannot supply negatives and are dropped with a warning at
    construction.
    """

    def __init__(self, interactions, rng):
        self.n_anchors, self.n_items = interactions.n_anchors, interactions.n_items
        self.rng = rng
        indptr, items = interactions.anchor_index((TRAIN,))
        counts = np.diff(indptr)
        owner = np.repeat(np.arange(len(counts)), counts)
        self._keys = edge_keys(owner, items, self.n_anchors, self.n_items)  # sorted, as the index is
        full = np.flatnonzero(counts == self.n_items)
        if len(full):
            log.warning("%d anchor(s) interact with all items; skipped: %s", len(full), full.tolist())
        self.eligible = np.flatnonzero((counts > 0) & (counts < self.n_items))
        if not len(self.eligible):
            raise ValueError("no anchor has train edges to sample from")
        self._starts, self._counts, self._items = indptr[:-1], counts, items

    def _is_train(self, anchors, items):
        """Whether each (anchor, item) pair is a train edge."""
        return in_sorted(self._keys, edge_keys(anchors, items, self.n_anchors, self.n_items))

    def sample(self, batch_size):
        rng = self.rng
        anchors = rng.choice(self.eligible, size=batch_size, replace=True)
        pos = self._items[self._starts[anchors] + rng.integers(self._counts[anchors])]
        neg = rng.integers(self.n_items, size=batch_size)
        redo = np.flatnonzero(self._is_train(anchors, neg))
        while len(redo):
            neg[redo] = rng.integers(self.n_items, size=len(redo))
            redo = redo[self._is_train(anchors[redo], neg[redo])]
        return anchors, pos, neg
