"""The typed request surface: round-trips, validation, digest semantics."""

import json

import pytest

from repro import api
from repro.errors import ConfigError

ALL_KINDS = sorted(api.REQUEST_KINDS)


def _sample(kind):
    """A non-default instance of each request kind."""
    return {
        "characterize": api.CharacterizeRequest(
            cluster="cloudlab", workload="resnet50", seed=3, scale=0.5,
            days=2, runs_per_day=2, coverage=0.5, workers=2,
        ),
        "screen": api.ScreenRequest(
            cluster="cloudlab", workloads=("sgemm", "pagerank"), seed=1,
            scale=0.5, days=2, min_confirmations=1,
        ),
        "sweep": api.SweepRequest(
            power_limits_w=(250.0, 150.0), seed=2, scale=0.5, runs=3,
        ),
        "schedule": api.ScheduleRequest(
            cluster="cloudlab", policy="backfill", seed=4, scale=0.5,
            n_jobs=10, trace_seed=9, diurnal_amplitude=0.3,
            day_of_week_weights=(1.0,) * 7,
        ),
        "monitor": api.MonitorRequest(
            cluster="cloudlab", seed=5, scale=0.5, days=2, window=2,
        ),
        "chaos": api.ChaosRequest(
            scenario="pump-degradation", cluster="cloudlab", seed=6,
            scale=0.5, days=3, runs_per_day=1, n_jobs=5, trace_seed=2,
        ),
    }[kind]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_round_trip_is_identity(self, kind):
        request = _sample(kind)
        rebuilt = api.request_from_json(request.to_json())
        assert rebuilt == request
        assert type(rebuilt) is type(request)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dict_carries_kind_and_schema_version(self, kind):
        doc = _sample(kind).to_dict()
        assert doc["kind"] == kind
        assert doc["schema_version"] == api.REQUEST_SCHEMA_VERSION

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_is_canonical(self, kind):
        text = _sample(kind).to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown request kind"):
            api.request_from_dict({"kind": "frobnicate"})

    def test_kind_mismatch_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["kind"] = "screen"
        with pytest.raises(ConfigError):
            api.ScreenRequest.from_dict({**doc, "kind": "characterize"})

    def test_unknown_keys_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ConfigError):
            api.request_from_dict(doc)

    def test_foreign_schema_version_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["schema_version"] = api.REQUEST_SCHEMA_VERSION + 1
        with pytest.raises(ConfigError, match="schema_version"):
            api.request_from_dict(doc)

    def test_non_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            api.request_from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            api.request_from_json("[1, 2]")

    def test_bad_field_values_rejected(self):
        with pytest.raises(ConfigError):
            api.CharacterizeRequest(scale=0.0)
        with pytest.raises(ConfigError):
            api.ScheduleRequest(arrival_rate_per_hour=0.0)

    @pytest.mark.parametrize("body", [
        {"kind": "characterize", "scale": "x"},
        {"kind": "characterize", "scale": None},
        {"kind": "characterize", "scale": True},
        {"kind": "characterize", "days": "abc"},
        {"kind": "characterize", "days": None},
        {"kind": "characterize", "days": [1]},
        {"kind": "characterize", "days": 0},
        {"kind": "characterize", "runs_per_day": "2"},
        {"kind": "monitor", "days": 1.5},
        {"kind": "monitor", "runs_per_day": True},
        {"kind": "screen", "days": "3"},
        {"kind": "chaos", "runs_per_day": None},
        {"kind": "sweep", "scale": "0.5"},
        {"kind": "characterize", "deadline_s": "soon"},
        # The steady-state solver is no longer selectable: a stale body
        # naming one fails as an unknown key.
        {"kind": "characterize", "solver": "fleet"},
        {"kind": "characterize", "coverage": "x"},
        {"kind": "characterize", "coverage": None},
        {"kind": "monitor", "coverage": [0.5]},
        {"kind": "characterize", "power_limit_w": "250"},
        {"kind": "characterize", "power_limit_w": True},
        {"kind": "sweep", "power_limits_w": ["x"]},
        {"kind": "sweep", "power_limits_w": 5},
        {"kind": "sweep", "power_limits_w": [None]},
        {"kind": "schedule", "arrival_rate_per_hour": "fast"},
        {"kind": "schedule", "arrival_rate_per_hour": None},
        {"kind": "schedule", "diurnal_amplitude": "0.5"},
        {"kind": "schedule", "peak_hour": [14]},
        {"kind": "schedule", "day_of_week_weights": "weekdays"},
        {"kind": "schedule", "day_of_week_weights": [1, "x"]},
        {"kind": "schedule", "power_budget_w": "lots"},
        # The dispatch engine is no longer selectable either.
        {"kind": "schedule", "engine": "auto"},
    ], ids=repr)
    def test_malformed_wire_values_rejected(self, body):
        # Wrong types must raise the typed error before any digest is
        # taken, never a bare TypeError from a comparison.
        with pytest.raises(ConfigError):
            api.request_from_dict(body)


class TestDigest:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_execution_fields_do_not_change_the_digest(self, kind):
        import dataclasses

        request = _sample(kind)
        retuned = dataclasses.replace(request, workers=4, deadline_s=1.5)
        assert api.request_digest(request) == api.request_digest(retuned)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_result_fields_change_the_digest(self, kind):
        import dataclasses

        request = _sample(kind)
        reseeded = dataclasses.replace(request, seed=request.seed + 1)
        assert api.request_digest(request) != api.request_digest(reseeded)

    def test_distinct_kinds_never_collide(self):
        digests = {api.request_digest(_sample(kind)) for kind in ALL_KINDS}
        assert len(digests) == len(ALL_KINDS)

    def test_digest_requires_a_request(self):
        with pytest.raises(ConfigError):
            api.request_digest({"kind": "characterize"})


class TestExecuteRequest:
    def test_rejects_non_request_objects(self):
        with pytest.raises(ConfigError, match="request types"):
            api.execute_request({"kind": "characterize"})

    def test_dispatches_by_kind(self):
        result = api.execute_request(
            api.CharacterizeRequest(cluster="cloudlab", scale=0.5, days=1)
        )
        assert result.report.cluster_name == "CloudLab"
        assert result.dataset.n_rows > 0

    def test_request_path_matches_keyword_path(self):
        from repro.telemetry.io import dataset_to_csv_text

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=3
        )
        via_request = api.characterize(request=request)
        via_keywords = api.characterize(
            cluster=api.load_preset("cloudlab", seed=3, scale=0.5),
            workload=api.load_workload("sgemm"),
            config=api.CampaignConfig(days=1),
        )
        assert dataset_to_csv_text(via_request.dataset) == (
            dataset_to_csv_text(via_keywords.dataset)
        )

    def test_request_plus_keywords_is_an_error(self):
        with pytest.raises(ConfigError, match="either"):
            api.characterize(
                request=api.CharacterizeRequest(),
                cluster=api.load_preset("cloudlab", scale=0.5),
            )
