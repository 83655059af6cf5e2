"""End-to-end HTTP tests: auth, grants, admission, shedding, deadlines."""

import threading
import time

import pytest

from repro.service.client import (
    ServiceAuthError,
    ServiceClient,
    ServiceDeadlineError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.service.config import ServiceConfig
from repro.service.queue import PlanTask

from tests.service.conftest import SMALL_SAMPLES


class TestAuth:
    def test_wrong_token_rejected(self, live_service):
        intruder = ServiceClient(live_service.address, token="wrong")
        with pytest.raises(ServiceAuthError):
            intruder.plan("job-a", num_samples=SMALL_SAMPLES)

    def test_unauthenticated_health_is_open(self, live_service):
        anon = ServiceClient(live_service.address, token="wrong")
        assert anon.health()
        assert anon.ready()


class TestPlan:
    def test_grant_carries_a_full_plan(self, client):
        grant = client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=4)
        assert grant.seq == 1
        assert not grant.replayed
        assert len(grant.splits) == SMALL_SAMPLES
        assert grant.granted_cores == 4
        assert grant.reason
        assert grant.expected_epoch_s is not None

    def test_identical_request_is_replayed_not_replanned(self, client):
        first = client.plan("job-a", num_samples=SMALL_SAMPLES)
        second = client.plan("job-a", num_samples=SMALL_SAMPLES)
        assert second.replayed
        assert second.seq == first.seq
        assert second.splits == first.splits

    def test_changed_params_yield_a_new_grant(self, client):
        first = client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=4)
        second = client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=8)
        assert not second.replayed
        assert second.seq == first.seq + 1

    def test_released_jobs_leave_the_grant_table(self, live_service, client):
        for job in ("job-a", "job-b"):
            client.plan(job, num_samples=SMALL_SAMPLES, storage_cores=2)
            client.plan(job, num_samples=SMALL_SAMPLES, storage_cores=4)
            client.release(job)
        assert live_service.status_body()["grants"] == 0

    def test_resend_from_before_a_release_is_planned_afresh(self, client):
        first = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=1, storage_cores=4)
        client.release("job-a")
        second = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=2, storage_cores=4)
        # The seed-1 grant died with the release; the ledger's commitment
        # is the seed-2 grant's, so the re-send cannot be a replay.
        resent = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=1, storage_cores=4)
        assert not resent.replayed
        assert resent.seq > second.seq > first.seq

    def test_unknown_model_is_a_protocol_error(self, client):
        with pytest.raises(ServiceProtocolError, match="unknown model"):
            client.plan("job-a", num_samples=SMALL_SAMPLES, model="gpt9")

    def test_sample_cap_enforced(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=16, max_samples=8)
        )
        client = ServiceClient(service.address)
        with pytest.raises(ServiceProtocolError, match="cap"):
            client.plan("job-a", num_samples=SMALL_SAMPLES)


class TestAdmissionControl:
    def test_oversubscription_is_shed_with_retry_hint(self, live_service):
        client = ServiceClient(
            live_service.address, deadline_s=5.0, max_attempts=2
        )
        client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=12)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.plan("job-b", num_samples=SMALL_SAMPLES, storage_cores=8)
        assert "oversubscribed" in str(excinfo.value)
        assert excinfo.value.retry_after_s is not None

    def test_release_frees_budget_for_the_next_job(self, client):
        client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=12)
        assert client.release("job-a") == 12
        grant = client.plan("job-b", num_samples=SMALL_SAMPLES, storage_cores=12)
        assert not grant.replayed

    def test_release_without_commitment_is_none(self, client):
        assert client.release("ghost") is None

    def test_rejection_commits_nothing(self, live_service, client):
        client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=12)
        hopeless = ServiceClient(live_service.address, max_attempts=1)
        with pytest.raises(ServiceUnavailableError):
            hopeless.plan("job-b", num_samples=SMALL_SAMPLES, storage_cores=8)
        assert live_service.ledger.committed() == {"job-a": 12}


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=48, workers=1, queue_capacity=1),
            disturbance=lambda index: 0.5,  # pin the only worker
        )
        # Pin the worker, then fill the one queue slot behind it.
        pin = PlanTask(request={"job": "pin"}, enqueued_at=0.0)
        service.queue.submit(pin)
        deadline = time.monotonic() + 5.0
        while service.queue.depth > 0 and time.monotonic() < deadline:
            time.sleep(0.005)  # the worker has taken the pin task
        service.queue.submit(PlanTask(request={"job": "filler"}, enqueued_at=0.0))
        impatient = ServiceClient(service.address, max_attempts=1)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            impatient.plan("job-c", num_samples=SMALL_SAMPLES)
        assert "capacity" in str(excinfo.value)
        assert excinfo.value.retry_after_s is not None
        assert service.queue.shed_count >= 1

    def test_client_deadline_budget_gives_up_in_time(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=16),
            disturbance=lambda index: 0.5,  # slower than the deadline below
        )
        client = ServiceClient(
            service.address, deadline_s=0.2, max_attempts=3
        )
        started = time.monotonic()
        with pytest.raises(ServiceDeadlineError):
            client.plan("job-a", num_samples=SMALL_SAMPLES)
        assert time.monotonic() - started < 2.0  # gave up, not retried forever
        assert client.stats.deadline_misses == 1

    def test_handler_abandons_at_its_deadline_with_504(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=16),
            disturbance=lambda index: 0.5,
        )
        status, body, _ = service.submit_plan(
            {"job": "job-a", "num_samples": SMALL_SAMPLES}, deadline_s=0.1
        )
        assert status == 504
        assert "deadline" in str(body["error"])

    def test_worker_drops_tasks_that_expired_while_queued(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=48, workers=1, queue_capacity=4),
            disturbance=lambda index: 0.3,
        )
        results = []

        def submit() -> None:
            results.append(
                service.submit_plan(
                    {"job": "job-q", "num_samples": SMALL_SAMPLES},
                    deadline_s=0.1,
                )
            )

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert [status for status, _, _ in results] == [504, 504]


class TestDrain:
    def test_drain_checkpoints_and_stops_accepting(self, tmp_path, service_factory):
        journal = str(tmp_path / "journal.jsonl")
        service = service_factory(
            ServiceConfig(total_storage_cores=16, journal_path=journal)
        )
        client = ServiceClient(service.address, deadline_s=5.0, max_attempts=1)
        client.plan("job-a", num_samples=SMALL_SAMPLES)
        client.drain()
        deadline = time.monotonic() + 10.0
        while service.drain_seconds is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.drain_seconds is not None
        assert not service.is_ready
        with open(journal) as handle:
            assert '"kind":"checkpoint"' in handle.read()

    def test_draining_service_sheds_at_submission(self):
        from repro.service.server import DecisionService

        service = DecisionService(ServiceConfig(total_storage_cores=16))
        service.drain()  # never started: drains to a stop immediately
        status, body, retry_after = service.submit_plan({"job": "job-a"}, None)
        assert status == 503
        assert "draining" in str(body["error"])
        assert retry_after is not None

    def test_drained_service_is_unreachable(self, service_factory):
        service = service_factory(ServiceConfig(total_storage_cores=16))
        address = service.address
        service.drain()
        client = ServiceClient(address, max_attempts=1, deadline_s=1.0)
        with pytest.raises(ServiceUnavailableError):
            client.plan("job-a", num_samples=SMALL_SAMPLES)
        assert not client.health()


class TestStateLockDiscipline:
    """Regression tests for the _state_lock races sophon-lint GUARD01
    flagged: the grant-map read in _process and the status snapshot both
    happen under the lock now, so concurrent planning can never expose a
    torn view of (grants, next_seq)."""

    def test_status_snapshot_is_never_torn(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=48, workers=2, queue_capacity=32)
        )
        jobs = [f"job-{i}" for i in range(10)]

        def submit(job):
            service.submit_plan(
                {"job": job, "num_samples": SMALL_SAMPLES, "storage_cores": 1},
                deadline_s=10.0,
            )

        threads = [
            threading.Thread(target=submit, args=(job,)) for job in jobs
        ]
        for thread in threads:
            thread.start()
        snapshots = []
        while any(t.is_alive() for t in threads):
            snapshots.append(service.status_body())
            time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=10.0)
        snapshots.append(service.status_body())
        for snap in snapshots:
            # Seq allocation and grant insertion are atomic under
            # _state_lock; a torn snapshot would show the seq bumped
            # before its grant landed.
            assert snap["next_seq"] == snap["grants"] + 1
        assert snapshots[-1]["grants"] == len(jobs)

    def test_concurrent_identical_requests_all_succeed(self, service_factory):
        service = service_factory(
            ServiceConfig(total_storage_cores=16, workers=2, queue_capacity=8)
        )
        results = []

        def submit():
            results.append(
                service.submit_plan(
                    {
                        "job": "job-twin",
                        "num_samples": SMALL_SAMPLES,
                        "storage_cores": 4,
                    },
                    deadline_s=10.0,
                )
            )

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert [status for status, _, _ in results] == [200] * 4
        # However the race between workers resolved, the grant map keeps
        # exactly one record for the (job, digest) pair.
        assert service.status_body()["grants"] == 1


class TestObservability:
    def test_status_reports_queue_and_budget(self, live_service, client):
        client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=4)
        status = client.status()
        assert status["ready"] is True
        assert status["total_cores"] == 16
        assert status["committed_cores"] == 4
        assert status["grants"] == 1
        assert status["queue_capacity"] == live_service.config.queue_capacity

    def test_metrics_endpoint_serves_prometheus_text(self, client):
        client.plan("job-a", num_samples=SMALL_SAMPLES)
        text = client.metrics_text()
        assert "service_requests_total" in text
        assert "service_admissions_total" in text

    def test_unknown_endpoint_is_404(self, client):
        status, _, parsed, _ = client._request("GET", "/v1/nope")
        assert status == 404
        assert "no such endpoint" in str(parsed["error"])
