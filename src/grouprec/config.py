"""Training configuration: defaults, checks at construction, loading from a dict or JSON file."""

import dataclasses
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

# each variant's name and the letter the paper's ablation gives it
VARIANT_LETTERS = {
    "full": "Full",
    "mean_members": "A",
    "uniform_mix": "B",
    "no_interest_reg": "C",
    "hard_select": "D",
}
VARIANTS = tuple(VARIANT_LETTERS)

INTEREST_MODES = ("gate", "table")
TASKS = ("user", "group")


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting, checked when made and immutable; numpy numbers are stored as Python numbers."""

    embed_dim: int = 64
    n_interests: int = 4
    n_layers: int = 3
    temperature: float = 0.5
    sim_threshold: float = 0.1
    user_task_weight: float = 0.9
    interest_reg_weight: float = 0.4
    lr: float = 0.005
    weight_decay: float = 1e-4
    batch_user: int = 2048
    batch_group: int = 256
    epochs: int = 200
    patience: int = 20
    seed: int = 0
    variant: str = "full"
    interest_mode: str = "gate"
    use_groups: bool = True
    select_task: str = "user"

    def __post_init__(self):
        # types first, so a string, a bool or a float count, and an infinite real, fail here and
        # not in a comparison or the forward
        for name in COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"invalid config: {name} must be an integer, got {value!r}")
        for name in REALS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"invalid config: {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"invalid config: {name} must be finite, got {value!r}")
        if not isinstance(self.use_groups, bool):
            raise ValueError(f"invalid config: use_groups must be a bool, got {self.use_groups!r}")
        for name in COUNTS + REALS:
            object.__setattr__(self, name, _plain_number(getattr(self, name)))
        checks = [
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.n_interests >= 1, "n_interests must be >= 1"),
            (self.n_layers >= 0, "n_layers must be >= 0"),
            (self.temperature > 0.0, "temperature must be > 0"),
            (0.0 <= self.sim_threshold <= 1.0, "sim_threshold must be in [0, 1]"),
            (0.0 <= self.user_task_weight <= 1.0, "user_task_weight must be in [0, 1]"),
            (self.interest_reg_weight >= 0.0, "interest_reg_weight must be >= 0"),
            (self.lr >= 0.0, "lr must be >= 0"),
            (self.weight_decay >= 0.0, "weight_decay must be >= 0"),
            (self.batch_user >= 1, "batch_user must be >= 1"),
            (self.batch_group >= 1, "batch_group must be >= 1"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.patience >= 0, "patience must be >= 0"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.variant in VARIANTS, f"variant must be one of {VARIANTS}"),
            (self.interest_mode in INTEREST_MODES, f"interest_mode must be one of {INTEREST_MODES}"),
            (self.select_task in TASKS, f"select_task must be one of {TASKS}"),
            # without groups the user loss is the only term, and no group is scored
            (self.use_groups or self.select_task == "user", "select_task 'group' needs use_groups"),
            (self.use_groups or self.user_task_weight > 0.0, "user_task_weight must be > 0 without use_groups"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"invalid config: {msg}")

    def as_dict(self):
        return dataclasses.asdict(self)

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, Mapping):
            raise ValueError(f"a config maps keys to values, got {type(d).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "variant" in d and d["variant"] not in VARIANTS:
            try:
                d = {**d, "variant": resolve_variant(d["variant"])}
            except ValueError:
                pass  # let construction report it with the canonical list
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as f:
                d = json.load(f)
        except ValueError as e:  # malformed JSON, or bytes that are not UTF-8
            raise ValueError(f"{path}: not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise ValueError(f"{path}: expected a JSON object, got {type(d).__name__}")
        return cls.from_dict(d)


# the fields construction type-checks, by annotation: every int field is a count, every float field a real
COUNTS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.type is int)
REALS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.type is float)


def _plain_number(value):
    """An integer as int and any other real as float."""
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def resolve_variant(name):
    """Map a variant spelling (letter or full name, any case) to its canonical name."""
    low = str(name).strip().lower()
    for variant, letter in VARIANT_LETTERS.items():
        if low in (variant, letter.lower()):
            return variant
    raise ValueError(f"unknown variant {name!r}")
