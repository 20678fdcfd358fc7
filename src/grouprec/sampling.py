"""BPR triple sampling over train edges."""

import logging

import numpy as np

from .datasets import TRAIN

log = logging.getLogger(__name__)


class TripleSampler:
    """Draws (anchor, positive, negative) triples for one anchor kind.

    Anchors are drawn uniformly from those with at least one train edge;
    positives uniformly from the anchor's train items; negatives by
    rejection from items outside the anchor's train set. Anchors that
    interact with every item cannot supply negatives and are dropped
    with a warning at construction.
    """

    def __init__(self, interactions, rng):
        self.n_items = interactions.n_items
        self.rng = rng
        indptr, items = interactions.anchor_index((TRAIN,))
        counts = np.diff(indptr)
        for a in np.flatnonzero(counts >= self.n_items):
            log.warning("anchor %d interacts with all items; skipped", a)
        self.eligible = np.flatnonzero((counts > 0) & (counts < self.n_items))
        if not len(self.eligible):
            raise ValueError("no anchor has train edges to sample from")
        self._indptr, self._items = indptr.tolist(), items
        owner = np.repeat(np.arange(len(counts)), counts)
        self._taken = set((owner * self.n_items + items).tolist())  # anchor * n_items + item

    def sample(self, batch_size):
        anchors = self.rng.choice(self.eligible, size=batch_size, replace=True)
        pos = np.empty(batch_size, dtype=np.int64)
        neg = np.empty(batch_size, dtype=np.int64)
        for i, a in enumerate(anchors.tolist()):
            lo, hi = self._indptr[a], self._indptr[a + 1]
            pos[i] = self._items[lo + self.rng.integers(hi - lo)]
            while True:
                j = int(self.rng.integers(self.n_items))
                if a * self.n_items + j not in self._taken:
                    neg[i] = j
                    break
        return anchors, pos, neg
