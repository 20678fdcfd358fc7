"""The dual-task training loop with validation-based model selection."""

import csv
import ctypes
import logging
import math
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, weighted_sum
from .datasets import TRAIN, VALID
from .evaluate import evaluate_ranking
from .losses import bpr_loss, interest_regularizer
from .model import GroupRecommender
from .optim import Adam
from .sampling import TripleSampler

log = logging.getLogger(__name__)

# the step's loss values, in the order _step returns them: the loss columns of the training log
LOSS_TERMS = ("l_bpr", "l_group", "reg_interest", "reg_params", "total")
LOG_COLUMNS = ("epoch", *LOSS_TERMS, "val_metric", "seconds")

# mallopt parameter numbers from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
# Above glibc's 32 MiB ceiling for its dynamic threshold on purpose, so that
# every array the step allocates comes from the one kept heap at any data
# size: arrays over 32 MiB (once the dense evaluation score matrices) were
# mapped on top of the kept heap and raised peak RSS by 15-19%.
MMAP_THRESHOLD_BYTES = 1 << 30
TRIM_THRESHOLD_BYTES = 2**31 - 1
# One arena for every thread: the helper thread of every lane op (propagation,
# the interest ops, Adam, evaluation) otherwise gets its own, a second heap
# that keeps its freed blocks too (about 4 MB more peak RSS on the
# benchmark's stress shape).
ARENA_MAX = 1

_heap_kept = None  # None until the first Trainer.train, then whether every setting took


def _load_libc():
    return ctypes.CDLL("libc.so.6")


def _keep_freed_heap():
    """Stop glibc from handing freed step buffers back to the kernel.

    Every step frees and reallocates the same large temporaries; with
    glibc's defaults they are mmapped, or the heap is trimmed, so each step
    faults the same pages in again. Raising the mmap and trim thresholds
    keeps those pages in the heap for the next step, and one arena keeps
    them in one heap for every thread. This changes how the whole process
    allocates (RSS stays near its peak until exit) and no arithmetic. Runs
    once per process; off glibc, or if libc cannot be loaded or rejects a
    value, it logs once at DEBUG and training goes on.
    """
    global _heap_kept
    if _heap_kept is not None:
        return
    _heap_kept = False
    if platform.libc_ver()[0] != "glibc":
        log.debug("libc is not glibc; malloc thresholds left at their defaults")
        return
    try:
        mallopt = _load_libc().mallopt
    except (OSError, AttributeError) as exc:
        log.debug("cannot reach glibc mallopt (%s); malloc thresholds left at their defaults", exc)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                         (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
                         (M_ARENA_MAX, ARENA_MAX)):
        if mallopt(param, value) != 1:
            log.debug("mallopt(%d, %d) was rejected; freed heap may still be trimmed", param, value)
            return
    _heap_kept = True


def heap_kept():
    """Whether Trainer.train has set glibc to keep freed heap in this process."""
    return _heap_kept is True


@dataclass
class TrainResult:
    best_epoch: int
    best_metric: float
    epochs_run: int
    history: list = field(default_factory=list)  # one dict per epoch, keyed by LOG_COLUMNS
    stopped_early: bool = False


class Trainer:
    """Owns a model, the samplers for both tasks and, while it trains, an optimizer.

    Each step draws one user batch and one group batch, runs one forward
    over the whole user, item and group tables, and backpropagates the
    combined loss. Interests are generated only for the rows that read
    them. When the interest regularizer applies, the step generates them
    for the group members plus the users it covers, regularizes those, and
    hands the same interests to the forward; otherwise the forward
    generates the members' alone. Validation NDCG@10 on the
    configured task picks the kept parameters; training stops once it
    fails to improve for `patience` epochs in a row (at least one).

    Adam's two moments, one array each per parameter, exist only while
    training runs: the first step makes the optimizer, and `train` drops it
    when it returns or raises. So a built or trained trainer holds no
    moments (8.2 MB at perfbench's MaFengWo shape, 16.7 MB at its stress
    shape), and a second `train` starts from the restored best parameters
    with fresh moments and step count. `_step` called on its own keeps its
    optimizer between calls. perfbench keeps two trainers and trains one
    after the other; with moments made at construction, both sets were
    resident through the second training, and dropping them cut its stress
    `peak_rss_mb` median by 7.5% (README, Memory).
    """

    def __init__(self, dataset, config):
        self.dataset = dataset
        self.cfg = config
        param_rng, sample_rng, group_rng, self.noise_rng = np.random.default_rng(
            config.seed
        ).spawn(4)
        self.model = GroupRecommender(dataset, config, param_rng)
        self.opt = None  # Adam, made by the first step and dropped by train()
        self.user_sampler = TripleSampler(dataset.user_items, sample_rng)
        self.group_sampler = None
        if config.use_groups and np.any(dataset.group_items.splits == TRAIN):
            self.group_sampler = TripleSampler(dataset.group_items, group_rng)
        n_train = int(np.sum(dataset.user_items.splits == TRAIN))
        self.steps_per_epoch = max(1, math.ceil(n_train / config.batch_user))
        self.reg_applies = (
            self.model.generator is not None
            and config.interest_reg_weight > 0.0
            and config.variant != "no_interest_reg"
        )
        if self.model.generator is not None:
            log.info(
                "interests generated for %d group members of %d users%s",
                int(np.count_nonzero(self.model.is_member)),
                dataset.n_users,
                " plus each step's regularized batch users" if self.reg_applies else "",
            )

    def _draw(self):
        """The step's user triples, and its group triples (None when the group task is off)."""
        cfg = self.cfg
        user = self.user_sampler.sample(cfg.batch_user)
        group = None
        if self.group_sampler is not None and cfg.user_task_weight < 1.0:
            group = self.group_sampler.sample(cfg.batch_group)
        return user, group

    def _reg_users(self, user_anchors, group):
        """The regularizer's users: the batch users plus the batch groups' members."""
        if group is None:
            return np.unique(user_anchors)
        members = self.dataset.group_members[group[0]].indices
        return np.unique(np.concatenate([user_anchors, members]))

    def _loss(self, user, group, noise_rng):
        """The step's loss tensor, then its user, group and interest terms as floats.

        user and group are (anchors, positives, negatives) triples from _draw.
        """
        cfg = self.cfg
        interests = reg = None
        if self.reg_applies:  # recorded first, so its backward runs once the forward's buffers are freed
            reg_users = self._reg_users(user[0], group)
            interests = table, rows = self.model.interests(reg_users)
            reg = interest_regularizer(table, np.searchsorted(rows, reg_users), cfg.sim_threshold)
        state = self.model.forward(noise_rng=noise_rng, interests=interests)

        l_user = bpr_loss(state.user_final, state.item_final, *user)
        terms = [(cfg.user_task_weight, l_user)]

        l_group_val = 0.0
        if group is not None:
            l_group = bpr_loss(state.group_fused, state.item_final, *group)
            l_group_val = l_group.item()
            terms.append((1.0 - cfg.user_task_weight, l_group))

        if reg is not None:
            terms.append((cfg.interest_reg_weight, reg))
        return weighted_sum(*terms), l_user.item(), l_group_val, 0.0 if reg is None else reg.item()

    def _step(self):
        """One step; returns its loss values in LOSS_TERMS order.

        total is the loss the step backpropagated plus the L2 penalty that
        Adam's weight decay applies, weight_decay * reg_params, which reaches
        the gradients through the optimizer rather than the tape.
        """
        cfg = self.cfg
        # the samplers' streams are their own, so drawing before the forward changes no draw
        user, group = self._draw()
        with Tape() as tape:
            loss, l_user, l_group, reg_interest = self._loss(user, group, self.noise_rng)
            tape.backward(loss)
        if self.opt is None:
            self.opt = Adam(self.model.tensors(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        self.opt.step()
        self.opt.zero_grad()

        reg_params = sum(float(np.vdot(t.data, t.data)) for t in self.model.tensors())
        total = loss.item() + cfg.weight_decay * reg_params
        if not np.isfinite(total):
            raise FloatingPointError(
                f"non-finite loss: bpr={l_user} group={l_group} "
                f"reg={reg_interest} params={reg_params}"
            )
        return l_user, l_group, reg_interest, reg_params, total

    def _validation_metric(self):
        metrics, n = evaluate_ranking(
            self.model, self.dataset, self.cfg.select_task, ks=(10,), target=VALID
        )
        if n == 0:
            log.warning("no %s anchors with validation edges; metric pinned to 0", self.cfg.select_task)
            return 0.0
        return metrics["ndcg@10"]

    def train(self, log_path=None):
        _keep_freed_heap()
        cfg = self.cfg
        best_metric = -np.inf
        best_epoch = 0
        best_params = None
        streak = 0
        history = []
        stopped = False
        writer = None
        log_file = None
        if log_path is not None:
            log_file = open(log_path, "w", newline="")
            writer = csv.DictWriter(log_file, LOG_COLUMNS)
            writer.writeheader()
        try:
            for epoch in range(1, cfg.epochs + 1):
                t0 = time.perf_counter()
                acc = np.zeros(len(LOSS_TERMS))
                for _ in range(self.steps_per_epoch):
                    acc += self._step()
                acc /= self.steps_per_epoch

                val = None
                if epoch % cfg.eval_every == 0:
                    val = self._validation_metric()
                    if val > best_metric:
                        best_metric = val
                        best_epoch = epoch
                        best_params = [
                            (name, t.data.copy()) for name, t in self.model.named_params()
                        ]
                        streak = 0
                    else:
                        streak += 1
                seconds = time.perf_counter() - t0
                row = {"epoch": epoch, **dict(zip(LOSS_TERMS, acc)), "val_metric": val, "seconds": seconds}
                history.append(row)
                if writer:
                    writer.writerow(row)
                log.info(
                    "epoch %d: total %.4f bpr %.4f group %.4f reg %.4f val %s (%.2fs)",
                    epoch,
                    row["total"],
                    row["l_bpr"],
                    row["l_group"],
                    row["reg_interest"],
                    "-" if val is None else f"{val:.4f}",
                    seconds,
                )
                if streak >= max(1, cfg.patience):
                    stopped = True
                    break
        finally:
            self.opt = None
            if log_file:
                log_file.close()

        if best_params is not None:
            by_name = dict(best_params)
            for name, tensor in self.model.named_params():
                tensor.data = by_name[name]
        else:
            best_epoch = len(history)
            best_metric = 0.0
        return TrainResult(
            best_epoch=best_epoch,
            best_metric=float(best_metric),
            epochs_run=len(history),
            history=history,
            stopped_early=stopped,
        )


def build_model_from_arrays(dataset, config, named_arrays):
    """Rebuild a model and overwrite its parameters with checkpoint arrays."""
    model = GroupRecommender(dataset, config, np.random.default_rng(config.seed))
    have = dict(named_arrays)
    for name, tensor in model.named_params():
        if name not in have:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        arr = have.pop(name)
        if arr.shape != tensor.data.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, model wants {tensor.data.shape}"
            )
        tensor.data = arr.astype(np.float64, copy=True)
    if have:
        raise ValueError(f"checkpoint has unexpected tensors: {sorted(have)}")
    return model
