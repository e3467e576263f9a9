"""HTTP surface of the fleet service: routing, parity, backpressure.

Servers bind ``port=0`` (ephemeral) and every test runs its own event
loop via ``asyncio.run`` — no fixed ports, no cross-test state.
"""

import asyncio
import threading

import pytest

from repro import api
from repro.loadgen.client import http_request
from repro.service import (
    FleetService,
    ServiceConfig,
    decode_response,
    validate_response,
)
from repro.telemetry.io import dataset_to_csv_text


def _with_service(coro, config=None, runner=None):
    """Run ``coro(service)`` against a started ephemeral-port service."""

    async def wrapper():
        service = FleetService(
            config if config is not None else ServiceConfig(port=0),
            runner=runner,
        )
        await service.start()
        try:
            return await coro(service)
        finally:
            await service.stop()

    return asyncio.run(wrapper())


def _post(service, kind, request, timeout_s=60.0):
    return http_request(
        "127.0.0.1", service.port, "POST", f"/v1/{kind}",
        request.to_json().encode(), timeout_s,
    )


class TestRouting:
    def test_healthz(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/healthz"
            )

        reply = _with_service(scenario)
        assert reply.status == 200
        assert decode_response(reply.body)["status"] == "ok"

    def test_metrics_exposition(self):
        async def scenario(service):
            await _post(
                service, "characterize",
                api.CharacterizeRequest(cluster="cloudlab", scale=0.5, days=1),
            )
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario)
        assert reply.status == 200
        text = reply.body.decode()
        assert "service_requests_total 1" in text
        assert "service_request_latency_s" in text

    def test_unknown_route_404(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/nonsense"
            )

        assert _with_service(scenario).status == 404

    def test_wrong_method_405(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/characterize"
            )

        assert _with_service(scenario).status == 405

    def test_bad_json_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize",
                b"{not json",
            )

        reply = _with_service(scenario)
        assert reply.status == 400
        assert decode_response(reply.body)["error"]["code"] == "bad_json"

    def test_kind_mismatch_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/screen",
                api.CharacterizeRequest(
                    cluster="cloudlab", scale=0.5, days=1
                ).to_json().encode(),
            )

        assert _with_service(scenario).status == 400

    def test_invalid_field_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize",
                b'{"scale": 7.0}',
            )

        assert _with_service(scenario).status == 400

    @pytest.mark.parametrize("body", [
        b'{"scale": "x"}',
        b'{"days": "abc"}',
        b'{"solver": "fleet"}',
        b'{"coverage": "x"}',
    ])
    def test_mistyped_or_stale_field_400(self, body):
        # A wrong type or a field that no longer exists is a typed
        # bad_request reply, never a dropped connection.
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize", body,
            )

        reply = _with_service(scenario)
        assert reply.status == 400
        assert decode_response(reply.body)["error"]["code"] == "bad_request"

    def test_unexpected_exception_500_and_service_survives(self):
        # A bug below the request layer is answered, not a dropped
        # connection, and the service keeps serving afterwards.
        def flaky_runner(request):
            if request.seed == 1:
                raise RuntimeError("boom")
            return b'{"ok":1}'

        async def scenario(service):
            failed = await _post(
                service, "characterize",
                api.CharacterizeRequest(cluster="cloudlab", seed=1),
            )
            served = await _post(
                service, "characterize",
                api.CharacterizeRequest(cluster="cloudlab", seed=0),
            )
            return failed, served

        failed, served = _with_service(scenario, runner=flaky_runner)
        assert failed.status == 500
        error = decode_response(failed.body)["error"]
        assert error["code"] == "internal"
        assert "RuntimeError: boom" in error["message"]
        assert served.status == 200
        assert served.body == b'{"ok":1}'


class TestParity:
    def test_characterize_csv_matches_offline_facade_bytes(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=3
        )

        async def scenario(service):
            return await _post(service, "characterize", request)

        reply = _with_service(scenario)
        assert reply.status == 200
        payload = decode_response(reply.body)
        assert validate_response(payload) == "characterize"
        offline = api.characterize(request=request)
        assert payload["csv"].encode() == (
            dataset_to_csv_text(offline.dataset).encode()
        )
        assert payload["request"] == request.to_dict()

    def test_cache_hit_bodies_are_byte_identical(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            first = await _post(service, "characterize", request)
            second = await _post(service, "characterize", request)
            return first, second

        first, second = _with_service(scenario)
        assert first.headers["x-repro-cache"] == "miss"
        assert second.headers["x-repro-cache"] == "hit"
        assert first.body == second.body
        assert first.headers["x-repro-digest"] == api.request_digest(request)


class TestBackpressureHttp:
    def test_saturation_returns_429(self):
        release = threading.Event()

        def slow_runner(request):
            assert release.wait(5.0)
            return b'{"ok":1}'

        config = ServiceConfig(port=0, workers=1, max_pending=1)
        first_req = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=0
        )
        second_req = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=1
        )

        async def scenario(service):
            first = asyncio.ensure_future(
                _post(service, "characterize", first_req)
            )
            await asyncio.sleep(0.05)  # occupy the only admission slot
            second = await _post(service, "characterize", second_req)
            release.set()
            return await first, second

        first, second = _with_service(scenario, config, slow_runner)
        assert first.status == 200
        assert second.status == 429
        assert "retry-after" in second.headers

    def test_deadline_returns_503_then_cache_serves_the_result(self):
        release = threading.Event()

        def slow_runner(request):
            assert release.wait(5.0)
            return b'{"late":1}'

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, deadline_s=0.05
        )

        async def scenario(service):
            timed_out = await _post(service, "characterize", request)
            release.set()
            for _ in range(100):
                if len(service.cache):
                    break
                await asyncio.sleep(0.01)
            served = await _post(service, "characterize", request)
            return timed_out, served

        timed_out, served = _with_service(
            scenario, ServiceConfig(port=0), slow_runner
        )
        assert timed_out.status == 503
        assert served.status == 200
        assert served.headers["x-repro-cache"] == "hit"
        assert served.body == b'{"late":1}'


class TestWorkCountersAndTimeline:
    def test_metrics_expose_solver_work_and_uptime(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            await _post(service, "characterize", request)
            await _post(service, "characterize", request)  # cache hit
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario)
        text = reply.body.decode()
        assert text.endswith("\n")
        assert "repro_solver_solves" in text
        assert "repro_solver_batches" in text
        assert "repro_service_uptime_seconds" in text
        uptime = [line for line in text.splitlines()
                  if line.startswith("repro_service_uptime_seconds ")]
        assert float(uptime[0].split()[1]) > 0.0

    def test_runner_counters_merge_once_per_execution(self):
        def counting_runner(request):
            return b'{"ok":1}', {"solver.solves": 5, "engine.batches": 2}

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            await _post(service, "characterize", request)
            await _post(service, "characterize", request)  # hit: no re-merge
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario, runner=counting_runner)
        text = reply.body.decode()
        assert "repro_solver_solves 5" in text
        assert "repro_engine_batches 2" in text

    def test_timeline_streams_admissions_with_header_ids(self, tmp_path):
        from repro.obs.timeline import read_timeline

        path = tmp_path / "svc.jsonl"
        config = ServiceConfig(port=0, timeline_path=str(path))
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            first = await _post(service, "characterize", request)
            second = await _post(service, "characterize", request)
            return first, second

        first, second = _with_service(scenario, config)
        assert first.headers["x-repro-timeline"] == "1"
        assert second.headers["x-repro-timeline"] == "2"
        _, events = read_timeline(path)
        assert events[0].kind == "service_start"
        admits = [e for e in events if e.kind == "admit"]
        assert [e.value("status") for e in admits] == ["miss", "hit"]
        assert all(e.value("verb") == "characterize" for e in admits)
        assert admits[0].entity == api.request_digest(request)

    def test_no_timeline_header_without_recorder(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            return await _post(service, "characterize", request)

        reply = _with_service(scenario)
        assert "x-repro-timeline" not in reply.headers
