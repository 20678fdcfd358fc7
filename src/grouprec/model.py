"""The full recommender: interests -> group mixing -> fusion -> propagation.

The M interests travel as one (n, M, d) tensor, pooled per group into one
(|G|, M, d) tensor that selection mixes down to (|G|, d).

One forward pass covers the whole user, item, and group tables; mini-batching
happens only in the losses, which index into the returned tables. Interest
generation is a stage of its own: `interests(users)` generates the interests
of the group members plus `users` and names the user of each row. Its
readers are the attention pool (the members' rows), the interest regularizer
(its users' rows) and the similarity report (every user's). A forward given
no interests generates the members' alone. Running a forward outside a
gradient tape is the (deterministic) inference path.

Structural reductions double as baselines: use_groups=False with n_layers=0
is plain matrix factorization, use_groups=False with n_layers>0 is the
linear graph-convolution recommender both trained with the same BPR loss.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import aggregation, fusion, graphconv
from . import autodiff as ag
from .autodiff import Tensor
from .config import TrainConfig
from .datasets import build_norm_adjacency
from .gating import INIT_STD, make_interest_generator


@dataclass
class ForwardState:
    user_final: Tensor
    item_final: Tensor
    group_fused: Tensor  # None when groups are disabled
    omega: Tensor  # None unless the interest mixer ran


# users=NO_USERS, interests' default, generates the group members' interests only
NO_USERS = np.zeros(0, dtype=np.int64)


class RowScores:
    """anchors @ items.T, computed one row block at a time and never whole.

    `.shape` is the full matrix's; `negated(rows)` returns those rows,
    negated, as a new float64 array. `nbytes` is the size of the largest
    block returned so far, the score memory one caller holds at once; it
    stays exact when threads ask for blocks.
    `columns`, `negated_pairs` and `error_bound` let a ranker bound a row's
    scores without computing it whole.
    """

    def __init__(self, anchors, items):
        self.anchors = anchors
        self.items = np.ascontiguousarray(items)  # row-major, so an item's vector is one contiguous row
        # a row-major copy: OpenBLAS packs it faster per block than a transposed view, same bits
        self.items_t = np.ascontiguousarray(items.T)
        self.shape = (len(anchors), len(items))
        self.nbytes = 0
        self._nbytes_lock = threading.Lock()
        width = self.items_t.shape[0]
        self._gamma = width * 2.0**-53 / (1.0 - width * 2.0**-53)
        self._max_item_norm = math.sqrt(np.einsum("ij,ij->j", self.items_t, self.items_t).max(initial=0.0))

    def negated(self, rows):
        """-(anchors[rows] @ items.T), bit for bit: negation is exact, so the product of negated anchors is."""
        return self._product(-self.anchors[rows])

    def columns(self, cols):
        """The scores of the item columns `cols` alone, over one copy of those items."""
        return RowScores(self.anchors, self.items[cols])

    def negated_pairs(self, rows, items):
        """-(anchors[rows[j]] · item items[j]) for each j, as row-wise dot products."""
        return -np.einsum("ij,ij->i", self.anchors[rows], self.items[items])

    def error_bound(self, rows):
        """γ_K·‖a‖·max‖v‖ for the anchor a of each of `rows`, K being the embedding width.

        Higham's bound |fl(a·v) - a·v| <= γ_K·|a|·|v|, with γ_K = K·u / (1 - K·u)
        and u = 2**-53, holds for every summation order (absent underflow and
        overflow), and |a|·|v| <= ‖a‖·‖v‖; so no float evaluation of a score of
        these rows, a block product's or a row-wise dot product's, is further
        than this from the exact score.
        """
        anchors = self.anchors[rows]
        return self._gamma * self._max_item_norm * np.sqrt(np.einsum("ij,ij->i", anchors, anchors))

    def _product(self, anchors):
        block = anchors @ self.items_t
        with self._nbytes_lock:
            self.nbytes = max(self.nbytes, block.nbytes)
        return block


class GroupRecommender:
    def __init__(self, dataset, config: TrainConfig, rng):
        self.cfg = config
        self.dataset = dataset
        d = config.embed_dim

        self.user_emb = Tensor(
            rng.normal(0.0, INIT_STD, size=(dataset.n_users, d)), requires_grad=True
        )
        self.item_emb = Tensor(
            rng.normal(0.0, INIT_STD, size=(dataset.n_items, d)), requires_grad=True
        )

        self.adj = build_norm_adjacency(dataset)

        self.group_emb = None
        self.att_vec = None
        self.generator = None
        if config.use_groups:
            if dataset.n_groups == 0:
                raise ValueError("use_groups set but the dataset has no groups")
            self.group_emb = Tensor(
                rng.normal(0.0, INIT_STD, size=(dataset.n_groups, d)), requires_grad=True
            )
            members = dataset.group_members.tocoo()
            self.member_gid = members.row.astype(np.int64)
            self.member_uid = members.col.astype(np.int64)
            self.is_member = np.zeros(dataset.n_users, dtype=bool)
            self.is_member[self.member_uid] = True
            self.pool_csr, self.pool_coef = fusion.build_user_pool(dataset)
            if config.variant == "mean_members":
                self.member_mean_csr = fusion.row_mean(dataset.group_members)
            else:
                self.att_vec = Tensor(rng.normal(0.0, INIT_STD, size=d), requires_grad=True)
                self.pool_pattern = ag.segment_pattern(
                    self.member_gid, dataset.n_groups, config.n_interests
                )
                self.generator = make_interest_generator(
                    config.interest_mode, config.n_interests, d, rng, dataset.n_users
                )

    def named_params(self):
        pairs = [("user_emb", self.user_emb), ("item_emb", self.item_emb)]
        if self.group_emb is not None:
            pairs.append(("group_emb", self.group_emb))
        if self.att_vec is not None:
            pairs.append(("att_vec", self.att_vec))
        if self.generator is not None:
            pairs.extend(self.generator.named_params())
        return pairs

    def tensors(self):
        return [t for _, t in self.named_params()]

    def named_params_data(self):
        return [(name, t.data) for name, t in self.named_params()]

    def interests(self, users=NO_USERS):
        """The (n, M, d) interests of the group members plus `users`, and the sorted user id of each row."""
        if self.generator is None:
            raise ValueError(f"model has no interest generator ({self.cfg.variant}, use_groups={self.cfg.use_groups})")
        keep = self.is_member.copy()
        keep[users] = True
        rows = np.flatnonzero(keep)
        return self.generator.interests(ag.gather_rows(self.user_emb, rows), rows), rows

    def forward(self, noise_rng=None, interests=None):
        """Build all final representations; noise_rng=None is deterministic.

        `interests` is a pair from `interests()`, which must cover the group
        members; given none, the forward generates the members' own.
        """
        cfg = self.cfg
        group_fused = omega = None
        users0 = self.user_emb
        if cfg.use_groups:
            # the group side's intermediates are its locals, so propagation runs without them
            group_fused, omega = self._fused_groups(noise_rng, interests)
            users0 = fusion.fuse_users(self.user_emb, group_fused, self.pool_csr, self.pool_coef)
        user_final, item_final = graphconv.propagate(
            self.adj, users0, self.item_emb, cfg.n_layers
        )
        return ForwardState(user_final, item_final, group_fused, omega)

    def _fused_groups(self, noise_rng, interests):
        """The fused group vectors, and the interest mixer's weights (None unless it ran)."""
        cfg = self.cfg
        if cfg.variant == "mean_members":
            member_pool = ag.spmm(self.member_mean_csr, self.user_emb)
            return fusion.fuse_groups(self.group_emb, member_pool), None
        n_groups = self.dataset.n_groups
        table, rows = self.interests() if interests is None else interests
        member_rows = np.searchsorted(rows, self.member_uid)
        pooled = aggregation.attention_pool(
            table, member_rows, self.member_gid, self.pool_pattern, self.att_vec
        )
        if cfg.variant == "uniform_mix":
            m = cfg.n_interests
            omega = Tensor(np.full((n_groups, m), 1.0 / m))
        else:
            noise = (
                aggregation.sample_gumbel(noise_rng, (n_groups, cfg.n_interests))
                if noise_rng is not None
                else None
            )
            omega = aggregation.selection_weights(
                self.group_emb,
                pooled,
                cfg.temperature,
                noise=noise,
                hard=cfg.variant == "hard_select",
            )
        group_interest = aggregation.mix_interests(omega, pooled)
        return fusion.fuse_groups(self.group_emb, group_interest), omega

    def row_scores(self, task, state=None):
        """The anchor-by-item scores of a task as a `RowScores`, no tape involved.

        Without a state it runs the members-only forward.
        """
        if state is None:
            state = self.forward()
        if task == "user":
            return RowScores(state.user_final.data, state.item_final.data)
        if task == "group":
            if state.group_fused is None:
                raise ValueError("group scoring requested with groups disabled")
            return RowScores(state.group_fused.data, state.item_final.data)
        raise ValueError(f"unknown task {task!r}")

    def interest_similarity(self):
        """Mean |cosine| between interest channels over every user, diagonal 1.

        As in the interest regularizer, a channel whose norm is below
        COSINE_NORM_EPS has cosine 0 with every other channel.
        """
        table, _ = self.interests(np.arange(self.dataset.n_users))
        sim = np.abs(ag.channel_cosines(table.data)[0]).mean(axis=0)
        np.fill_diagonal(sim, 1.0)
        return sim
