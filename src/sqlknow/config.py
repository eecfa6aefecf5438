"""Application configuration with file/env/flag precedence.

Defaults follow the reference hyperparameters: k1=5 tables, k2=12 columns per
table, k3=5 terms, k4=5 skeleton exemplars, token budgets 2048 (train) / 4096
(inference), rho=0.6, |alpha|=10, term mining top-K=150 of N_target=300 with a
per-database accepted-term goal of 20. Precedence: command-line flags >
SQLKNOW_* environment variables > config file > these defaults. The top-level
seed and embed are the one place to set them; each section that draws or
embeds gets a copy, which a config file may not set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .gateway import GatewayConfig
from .pattern_graph import GraphConfig
from .prompting import MIN_BUDGET
from .synthesis import SynthConfig
from .term_miner import MineConfig
from .textproc import EmbedConfig


@dataclass(frozen=True)
class LinkDefaults:
    k1: int = 5
    k2: int = 12
    k3: int = 5
    k4: int = 5


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
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    link: LinkDefaults = field(default_factory=LinkDefaults)
    budgets: BudgetDefaults = field(default_factory=BudgetDefaults)
    graph: GraphConfig = field(default_factory=GraphConfig)
    mine: MineConfig = field(default_factory=MineConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)


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


# section -> its fields that copy the top-level seed and embed
_COPIES = {"graph": {"seed", "embed"}, "mine": {"seed", "embed_dimension"},
           "synth": {"seed", "embed_dimension"}}


def _merge_section(default, data: dict, copies=()):
    valid = {f.name for f in fields(default)}
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    copied = set(data).intersection(copies)
    if copied:
        raise ConfigError(f"{sorted(copied)} are set by the top-level seed and embed")
    coerced = {}
    for key, value in data.items():
        current = getattr(default, key)
        if isinstance(current, tuple) and isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return replace(default, **coerced)
    except ValueError as exc:  # a section's own check, e.g. mine.top_k > mine.n_target
        raise ConfigError(f"bad config values {coerced}: {exc}") from exc


def load_config(path: str | Path | None = None, env: dict | None = None,
                seed: int | None = None) -> AppConfig:
    """Build the configuration: defaults, then file, then environment, then the
    ``seed`` flag; the top-level seed and embed are copied into the sections."""
    config = AppConfig()
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        top: dict = {}
        for key, value in raw.items():
            if key in ("embed", "link", "budgets", "graph", "mine", "synth", "gateway"):
                top[key] = _merge_section(getattr(config, key), value, _COPIES.get(key, ()))
            elif key in ("seed", "reward_timeout_ms"):
                top[key] = value
            else:
                raise ConfigError(f"unknown config section {key!r}")
        config = replace(config, **top)

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
            config = replace(config, **{name: value})
        else:
            overrides.setdefault(section, {})[name] = value
    for section, values in overrides.items():
        config = replace(config, **{section: _merge_section(getattr(config, section), values)})
    seed, embed = config.seed if seed is None else seed, config.embed
    return replace(
        config, seed=seed, graph=replace(config.graph, seed=seed, embed=embed),
        mine=replace(config.mine, seed=seed, embed_dimension=embed.dimension),
        synth=replace(config.synth, seed=seed, embed_dimension=embed.dimension),
    )


def config_snapshot(config: AppConfig) -> dict:
    """JSON-serializable snapshot for run manifests."""

    def as_dict(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return {f.name: as_dict(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, tuple):
            return [as_dict(v) for v in obj]
        return obj

    return as_dict(config)
