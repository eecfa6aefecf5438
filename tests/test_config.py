"""Configuration loading and precedence (file, then environment, then flags)."""

import json

import pytest

from sqlknow.config import AppConfig, load_config
from sqlknow.errors import ConfigError
from sqlknow.records import to_json


def test_defaults_carry_reference_hyperparameters():
    config = AppConfig()
    assert (config.link.k1, config.link.k2, config.link.k3, config.link.k4) == (5, 12, 5, 5)
    assert config.budgets.train == 2048 and config.budgets.inference == 4096
    assert config.synth.rho == 0.6 and abs(config.synth.alpha) == 10.0
    assert config.synth.fanout == 16
    assert config.mine.top_k == 150 and config.mine.n_target == 300
    assert config.mine.accepted_target == 20
    assert config.graph.question_clusters == 50
    assert config.graph.skeleton_clusters == 150


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 42,
        "link": {"k2": 6},
        "synth": {"rho": 0.4, "alpha": -10.0},
        "gateway": {"backend": "mock", "retries": 5},
    }))
    config = load_config(path)
    assert config.seed == 42
    assert config.link.k2 == 6
    assert config.link.k1 == 5  # untouched default
    assert config.synth.rho == 0.4
    assert config.gateway.retries == 5


def test_env_overrides_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"link": {"k2": 6}, "seed": 1}))
    config = load_config(path, env={"SQLKNOW_K2": "9", "SQLKNOW_SEED": "7",
                                    "SQLKNOW_RHO": "0.25"})
    assert config.link.k2 == 9
    assert config.seed == 7
    assert config.synth.rho == 0.25


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"link": {"k9": 1}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"mystery": {}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"gateway": {"concurrency": 2}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"synth": {"seed": 3}}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)
    # the embedding width is no setting, neither at the top level nor in a section
    path.write_text(json.dumps({"embed": {"dimension": 64}}))
    with pytest.raises(ConfigError, match="unknown config section 'embed'"):
        load_config(path)
    for section in ({"graph": {"embed": {"dimension": 64}}}, {"mine": {"embed_dimension": 64}},
                    {"synth": {"embed_dimension": 64}},
                    {"mine": {"seed": 3, "embed_dimension": 64}}):
        path.write_text(json.dumps(section))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)


# a copy is refused at any value, the default too, and beside a key the section owns
@pytest.mark.parametrize("section", [
    {"graph": {"seed": 3}},
    {"mine": {"seed": 3}},
    {"graph": {"seed": 0}},
    {"mine": {"seed": 0}},
    {"graph": {"question_clusters": 4, "seed": 3}},
    {"mine": {"top_k": 10, "seed": 3}},
])
def test_section_copies_of_top_level_values_rejected(tmp_path, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(section))
    with pytest.raises(ConfigError, match="top-level"):
        load_config(path)


def test_top_level_seed_reaches_every_section(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3}))
    config = load_config(path, env={})
    assert config.graph.seed == config.mine.seed == 3
    flagged = load_config(path, env={"SQLKNOW_SEED": "5"}, flags={"seed": 9})
    assert flagged.seed == flagged.graph.seed == flagged.mine.seed == 9
    assert to_json(flagged)["mine"]["seed"] == 9


def test_flags_override_env_and_file_and_are_checked_alike(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mine": {"top_k": 10, "n_target": 40}}))
    config = load_config(path, env={"SQLKNOW_RHO": "0.25"},
                         flags={"mine": {"top_k": 5}, "synth": {"rho": 0.5}})
    assert (config.mine.top_k, config.mine.n_target, config.synth.rho) == (5, 40, 0.5)
    with pytest.raises(ConfigError, match="^bad config value: mine: top_k must not exceed"):
        load_config(path, env={}, flags={"mine": {"top_k": 50}})
    for env, flags in (({}, {"synth": {"rho": -0.5}}), ({"SQLKNOW_RHO": "-0.1"}, {})):
        with pytest.raises(ConfigError, match="^bad config value: synth: rho must be in"):
            load_config(env=env, flags=flags)
    with pytest.raises(ConfigError, match="^bad config value: seed: expected an integer >= 0"):
        load_config(env={}, flags={"seed": -1})


@pytest.mark.parametrize("section, message", [
    ({"mine": {"top_k": -5, "n_target": 10}}, "mine: top_k, review_budget_factor and "
     "accepted_target must be >= 0"),
    ({"mine": {"review_budget_factor": -3}}, "mine: top_k, review_budget_factor"),
    ({"mine": {"accepted_target": -1}}, "mine: top_k, review_budget_factor"),
    ({"synth": {"rho": 1.5}}, "synth: rho must be in [0, 1], got 1.5"),
])
def test_values_a_section_rejects(tmp_path, section, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(section))
    with pytest.raises(ConfigError) as caught:
        load_config(path, env={})
    assert str(caught.value).startswith(f"bad config value: {message}")


def test_bad_env_value_rejected():
    with pytest.raises(ConfigError):
        load_config(env={"SQLKNOW_K1": "not-a-number"})


def test_snapshot_is_json_serializable():
    snapshot = to_json(AppConfig())
    text = json.dumps(snapshot, sort_keys=True)
    assert '"k1": 5' in text
    assert '"rho": 0.6' in text
