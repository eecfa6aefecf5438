"""Application configuration with file/env/flag precedence.

Defaults follow the reference hyperparameters: k1=5 tables, k2=12 columns per
table, k3=5 terms, k4=5 skeleton exemplars, token budgets 2048 (train) / 4096
(inference), rho=0.6, |alpha|=10, term mining top-K=150 of N_target=300 with a
per-database accepted-term goal of 20. Precedence, applied by :func:`load_config`
alone: command-line flags > SQLKNOW_* environment variables > config file >
these defaults. The top-level seed is the one place to set it; the ``graph``
and ``mine`` sections, which draw, get a copy, which a config file may not set.
Each cluster count is a pin (``graph.question_clusters``,
``graph.skeleton_clusters``, ``mine.clusters``) or, when null, a silhouette
sweep from k = 2 to one upper bound (``graph.question_sweep``,
``graph.skeleton_sweep``, ``mine.max_cluster_sweep``), as ``clustering.fit``
applies it. The embedding width is no setting: it is
``textproc.EMBED_DIMENSION``. File, environment and flag values are decoded by
the record codec of :mod:`sqlknow.records`, so a mistyped value, or one a
section's own check rejects, is a ConfigError naming its JSON path (e.g.
``link.k2: expected an integer, got "12"``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, InvariantViolation
from .gateway import GatewayConfig
from .pattern_graph import GraphConfig
from .prompting import MIN_BUDGET
from .records import from_json, to_json
from .synthesis import SynthConfig
from .term_miner import MineConfig


@dataclass(frozen=True)
class LinkDefaults:
    k1: int = 5
    k2: int = 12
    k3: int = 5
    k4: int = 5

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3, self.k4) < 1:
            raise ValueError("k1, k2, k3 and k4 must all be >= 1")


@dataclass(frozen=True)
class BudgetDefaults:
    train: int = 2048
    inference: int = 4096

    def __post_init__(self):
        if min(self.train, self.inference) < MIN_BUDGET:
            raise ValueError(f"token budgets must be >= {MIN_BUDGET}")


@dataclass(frozen=True)
class AppConfig:
    seed: int = 0
    reward_timeout_ms: int = 5000
    link: LinkDefaults = field(default_factory=LinkDefaults)
    budgets: BudgetDefaults = field(default_factory=BudgetDefaults)
    graph: GraphConfig = field(default_factory=GraphConfig)
    mine: MineConfig = field(default_factory=MineConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy's PCG64 takes no negative seed
            raise ValueError(f"seed: expected an integer >= 0, got {self.seed}")


_ENV_PREFIX = "SQLKNOW_"

# flat env keys -> (section attr or None for top level, field name, caster)
_ENV_KEYS = {
    "SEED": (None, "seed", int),
    "REWARD_TIMEOUT_MS": (None, "reward_timeout_ms", int),
    "K1": ("link", "k1", int),
    "K2": ("link", "k2", int),
    "K3": ("link", "k3", int),
    "K4": ("link", "k4", int),
    "BUDGET_TRAIN": ("budgets", "train", int),
    "BUDGET_INFERENCE": ("budgets", "inference", int),
    "RHO": ("synth", "rho", float),
    "ALPHA": ("synth", "alpha", float),
    "GATEWAY_BACKEND": ("gateway", "backend", str),
    "GATEWAY_ENDPOINT": ("gateway", "endpoint", str),
}


# the sections that copy the top-level seed
_SEED_COPIES = {"graph", "mine"}


def _merge(config: AppConfig, data: dict) -> AppConfig:
    """``config`` with ``data`` (top-level values and partial sections) over it,
    decoded by the record codec, so each value's type is checked by one rule."""
    merged = to_json(config)
    for key, value in data.items():
        if key not in merged:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(merged[key], dict):
            merged[key] = value
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
        unknown = set(value) - set(merged[key])
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if key in _SEED_COPIES and "seed" in value:
            raise ConfigError(f"{key}.seed is set by the top-level seed")
        merged[key] = {**merged[key], **value}
    try:
        return from_json(AppConfig, merged)
    except InvariantViolation as exc:  # a mistyped value or a section's own check
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path: str | Path | None = None, env: dict | None = None,
                flags: dict | None = None) -> AppConfig:
    """Defaults, then file, then environment, then ``flags`` (shaped like a config
    file); the top-level seed is copied into the sections that draw."""
    config = AppConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        config = _merge(config, raw)

    environ = env if env is not None else os.environ
    overrides: dict[str, dict] = {}
    for env_key, (section, name, cast) in _ENV_KEYS.items():
        raw_value = environ.get(_ENV_PREFIX + env_key)
        if raw_value is None:
            continue
        try:
            value = cast(raw_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {_ENV_PREFIX + env_key}: {raw_value!r}") from exc
        if section is None:
            overrides[name] = value
        else:
            overrides.setdefault(section, {})[name] = value
    config = _merge(_merge(config, overrides), flags or {})
    return replace(config, graph=replace(config.graph, seed=config.seed),
                   mine=replace(config.mine, seed=config.seed))
