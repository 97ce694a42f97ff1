"""Tests for experiment configuration validation."""

import pytest

from repro.core.config import ExperimentConfig

from ..conftest import BAD_CONFIG_FIELDS


class TestValidation:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_clusters == 10
        assert cfg.scheme == "NONE"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 0},
            {"duration": 0.0},
            {"adoption_probability": 1.5},
            {"adoption_probability": -0.1},
            {"remote_inflation": -0.1},
            {"scheme": "R0"},
            {"scheme": "F1.5"},
            {"scheme": "Rx"},
            {"scheme": "SOMETHING"},
            {"estimates": "psychic"},
            {"cancellation_policy": "cancel-eventually"},
            {"placement": "sideways"},
            {"placement": "balanced", "target_bias_ratio": 0.5},
            {"service_regime": "uniform"},
            {"algorithm": "sjf"},
            {"nodes_per_cluster": 0},
            {"interarrival_range": (0.0, 20.0)},
            {"interarrival_range": (20.0, 2.0)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_malformed_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", 0),
        ("cbf_compress_interval", 0.0),
        ("cbf_compress_interval", 600),
        ("cancellation_latency", 30),
        ("mean_interarrival", 2.5),
        ("offered_load", 2),
        ("target_bias_ratio", 1.0),
        ("target_bias_ratio", 0.25),
        ("target_bias_ratio", 1e-6),
    ])
    def test_well_formed_field_accepted(self, field, value):
        assert getattr(ExperimentConfig(**{field: value}), field) == value

    def test_explicit_node_counts_must_match_n(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_clusters=3, nodes_per_cluster=(128, 128))

    def test_explicit_node_counts_accepted(self):
        cfg = ExperimentConfig(n_clusters=2, nodes_per_cluster=[64, 256])
        assert cfg.nodes_per_cluster == (64, 256)


class TestDerivation:
    def test_with_creates_modified_copy(self):
        a = ExperimentConfig()
        b = a.with_(scheme="ALL", seed=7)
        assert b.scheme == "ALL" and b.seed == 7
        assert a.scheme == "NONE"

    def test_with_validates(self):
        with pytest.raises(ValueError):
            ExperimentConfig().with_(scheme="bogus")

    def test_scheduler_kwargs_for_cbf(self):
        cfg = ExperimentConfig(algorithm="cbf", cbf_compress_interval=5.0)
        assert cfg.scheduler_kwargs == {"compress_interval": 5.0}

    def test_scheduler_kwargs_empty_for_easy(self):
        assert ExperimentConfig(algorithm="easy").scheduler_kwargs == {}

    def test_describe_mentions_key_facts(self):
        text = ExperimentConfig(scheme="HALF", algorithm="cbf").describe()
        assert "HALF" in text and "CBF" in text and "N=10" in text

    def test_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(AttributeError):
            cfg.scheme = "ALL"  # type: ignore[misc]
