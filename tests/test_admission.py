"""Admission-control tests: token bucket, shedding, and client retry hints.

Three layers:

* :class:`TokenBucket` / :class:`AdmissionController` mechanics on a fake
  clock (deterministic rate math, no sleeps);
* server-level shedding over real HTTP — 429/503 with ``Retry-After`` in
  both header and body, deadline budgets, batch cost accounting, and the
  invariant that predictions are never shed;
* :class:`PredictionClient` behavior — honoring server retry hints, and
  retrying observation POSTs only under an idempotency key.
"""

import email.message
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.robustness import (
    AdmissionConfig,
    AdmissionController,
    Overloaded,
    RateLimited,
    TokenBucket,
)
from repro.server import PredictionClient, PredictionServer
from repro.server.client import RetryableServiceError, _retry_after_hint


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        assert bucket.try_acquire(5.0) == 0.0  # full burst passes
        assert bucket.try_acquire(1.0) == pytest.approx(0.1)  # 1 token / 10 per s
        clock.advance(0.1)
        assert bucket.try_acquire(1.0) == 0.0

    def test_failed_acquire_leaves_bucket_untouched(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=FakeClock())
        assert bucket.try_acquire(3.0) == pytest.approx(1.0)
        assert bucket.available == pytest.approx(2.0)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.available == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_rate_limit_sheds_with_hint(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionConfig(rate=10.0, burst=2.0),
            clock=clock,
        )
        with controller.admit():
            pass
        with controller.admit():
            pass
        with pytest.raises(RateLimited) as exc:
            controller.admit()
        assert exc.value.status == 429
        assert exc.value.retry_after == pytest.approx(0.1)  # 1 token at 10/s
        assert controller.counts["rate_limited"] == 1

    def test_retry_after_floor(self):
        controller = AdmissionController(
            AdmissionConfig(rate=1e6, burst=1.0),
            clock=FakeClock(),
        )
        controller.admit().__exit__()
        with pytest.raises(RateLimited) as exc:
            controller.admit()
        assert exc.value.retry_after == AdmissionConfig.retry_after_floor

    def test_bounded_pending_sheds_503(self):
        controller = AdmissionController(
            AdmissionConfig(rate=100.0, burst=50.0, max_pending=1, deadline=0.5),
            clock=FakeClock(),
        )
        slot = controller.admit()
        assert controller.pending == 1
        with pytest.raises(Overloaded) as exc:
            controller.admit()
        assert exc.value.status == 503
        assert exc.value.retry_after == pytest.approx(0.5)  # the deadline
        assert controller.counts["overloaded"] == 1
        with slot:
            pass  # releasing the slot reopens the door
        assert controller.pending == 0
        with controller.admit():
            assert controller.pending == 1

    def test_deadline_exceeded_is_counted_not_raised(self):
        controller = AdmissionController(
            AdmissionConfig(deadline=0.3), clock=FakeClock()
        )
        exc = controller.note_deadline_exceeded()
        assert isinstance(exc, Overloaded)
        assert exc.retry_after == pytest.approx(0.3)
        assert controller.counts["deadline"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionConfig(max_pending=0)
        with pytest.raises(ValueError, match="deadline"):
            AdmissionConfig(deadline=0.0)


def post_raw(address, payload):
    """POST an observation with stdlib urllib, returning
    ``(status, body, headers)`` — the client hides headers, and header
    checks are the point here."""
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}/observations",
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def observation(t, user=0, service=0, value=1.0):
    return {"timestamp": t, "user_id": user, "service_id": service, "value": value}


class TestServerShedding:
    def test_rate_limit_429_with_retry_after(self):
        admission = AdmissionConfig(rate=0.5, burst=1.0)
        with PredictionServer(
            rng=0, background_replay=False, admission=admission
        ) as server:
            status, __, __ = post_raw(server.address, observation(0.0))
            assert status == 200
            status, body, headers = post_raw(server.address, observation(1.0))
            assert status == 429
            assert body["retry_after"] > 0
            # RFC 9110 header: integer seconds, rounded up, never 0.
            assert int(headers["Retry-After"]) >= 1
            # Predictions are never shed: the read path stays available
            # with the observation bucket empty.
            client = PredictionClient(server.address)
            assert client.predict(0, 0) > 0
            counts = client.status()["robustness"]["admission"]
            assert counts["rate_limited"] == 1

    def test_deadline_shed_503_while_predictions_serve(self):
        admission = AdmissionConfig(
            rate=100.0, burst=50.0, max_pending=4, deadline=0.15
        )
        with PredictionServer(
            rng=0, background_replay=False, admission=admission
        ) as server:
            client = PredictionClient(server.address)
            client.report_observation(0, 0, 1.0, 0.0)
            server._ingest_lock.acquire()  # a stuck checkpoint, in effect
            try:
                results = {}

                def blocked_post():
                    results["observation"] = post_raw(
                        server.address, observation(1.0)
                    )

                poster = threading.Thread(target=blocked_post)
                poster.start()
                # The read path must not be behind the ingest lock.
                assert client.predict(0, 0) > 0
                poster.join(timeout=5.0)
            finally:
                server._ingest_lock.release()
            status, body, headers = results["observation"]
            assert status == 503
            assert "deadline" in body["error"]
            assert body["retry_after"] > 0
            assert int(headers["Retry-After"]) >= 1
            assert server.admission.counts["deadline"] == 1
            # The lock is free again: ingestion resumes.
            client.report_observation(0, 0, 1.0, 2.0)

    def test_batch_charged_by_item_count(self):
        admission = AdmissionConfig(rate=0.5, burst=5.0)
        with PredictionServer(
            rng=0, background_replay=False, admission=admission
        ) as server:
            client = PredictionClient(server.address)
            oversized = [observation(float(k), service=k) for k in range(10)]
            with pytest.raises(RetryableServiceError) as exc:
                client.report_observations_detailed(oversized)
            assert exc.value.status == 429
            assert server.model.updates_applied == 0
            # A batch within the burst passes whole.
            affordable = [observation(float(k), service=k) for k in range(5)]
            result = client.report_observations_detailed(affordable)
            assert result["accepted"] == 5


class TestClientRetryBehavior:
    def test_retry_after_hint_prefers_body(self):
        headers = email.message.Message()
        headers["Retry-After"] = "3"
        exc = urllib.error.HTTPError("http://x", 429, "shed", headers, None)
        assert _retry_after_hint(exc, {"retry_after": 0.4}) == 0.4
        assert _retry_after_hint(exc, {}) == 3.0
        assert _retry_after_hint(exc, None) == 3.0
        headers.replace_header("Retry-After", "soon")
        assert _retry_after_hint(exc, None) is None

    def test_retry_after_http_date_form(self):
        # RFC 9110 allows Retry-After as an HTTP-date; proxies commonly
        # rewrite delay-seconds into it.  The hint must survive the trip.
        from datetime import datetime, timedelta, timezone
        from email.utils import format_datetime

        headers = email.message.Message()
        future = datetime.now(timezone.utc) + timedelta(seconds=30)
        headers["Retry-After"] = format_datetime(future, usegmt=True)
        exc = urllib.error.HTTPError("http://x", 429, "shed", headers, None)
        hint = _retry_after_hint(exc, None)
        assert hint is not None
        assert 25.0 < hint <= 30.5

    def test_retry_after_http_date_in_past_clamps_to_zero(self):
        from datetime import datetime, timedelta, timezone
        from email.utils import format_datetime

        headers = email.message.Message()
        past = datetime.now(timezone.utc) - timedelta(seconds=60)
        headers["Retry-After"] = format_datetime(past, usegmt=True)
        exc = urllib.error.HTTPError("http://x", 503, "shed", headers, None)
        assert _retry_after_hint(exc, None) == 0.0

    def test_retry_after_garbage_still_none(self):
        headers = email.message.Message()
        headers["Retry-After"] = "next tuesday-ish"
        exc = urllib.error.HTTPError("http://x", 429, "shed", headers, None)
        assert _retry_after_hint(exc, None) is None

    def test_keyed_observation_post_is_retried_past_shedding(self):
        admission = AdmissionConfig(rate=5.0, burst=1.0)
        with PredictionServer(
            rng=0, background_replay=False, admission=admission
        ) as server:
            client = PredictionClient(
                server.address, retries=4, backoff=0.01, jitter=0.0
            )
            client.report_observation(0, 0, 1.0, 0.0, idempotency_key="k:0")
            # Bucket empty: the first attempt sheds, the retry honors the
            # server's hint and lands once a token accrues.
            client.report_observation(0, 0, 1.0, 1.0, idempotency_key="k:1")
            assert client.retries_performed >= 1
            assert server.model.updates_applied == 2
            assert server.admission.counts["rate_limited"] >= 1

    def test_retry_after_sleeps_are_jittered(self, monkeypatch):
        # Every shed client receives the same Retry-After number; if the
        # backoff honored it verbatim, the whole fleet would wake in the
        # same instant and re-create the stampede.  The hint must act as
        # a floor with jitter spread *above* it.
        client = PredictionClient(
            ("localhost", 1),
            retries=8,
            backoff=0.001,
            backoff_max=0.002,
            jitter=0.5,
        )
        exc = RetryableServiceError("shedding")
        exc.status = 429
        exc.retry_after = 0.5

        def always_shed(*args, **kwargs):
            raise exc

        sleeps: list = []
        monkeypatch.setattr(client, "_request_once", always_shed)
        monkeypatch.setattr(
            "repro.server.client.time.sleep", sleeps.append
        )
        with pytest.raises(RetryableServiceError):
            client.predict(0, 0)
        assert len(sleeps) == 8
        # Floor respected, ceiling bounded by the jitter factor...
        assert all(0.5 <= s <= 0.5 * 1.5 for s in sleeps)
        # ...and genuinely spread, not 8 identical wake-ups.
        assert len({round(s, 6) for s in sleeps}) > 1
        assert max(sleeps) - min(sleeps) > 0.01

    def test_bare_observation_post_is_never_retried(self):
        admission = AdmissionConfig(rate=5.0, burst=1.0)
        with PredictionServer(
            rng=0, background_replay=False, admission=admission
        ) as server:
            client = PredictionClient(server.address, retries=4, backoff=0.01)
            client.report_observation(0, 0, 1.0, 0.0)
            with pytest.raises(RetryableServiceError) as exc:
                client.report_observation(0, 0, 1.0, 1.0)
            assert exc.value.status == 429
            assert client.retries_performed == 0
            assert server.model.updates_applied == 1
