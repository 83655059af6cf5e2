"""Crash-recovery tests: kill mid-run, restart on the journal, compare."""

import dataclasses
import json

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.journal import read_grants

from tests.service.conftest import SMALL_SAMPLES


def canonical(grants) -> list:
    return [
        json.dumps(dataclasses.asdict(g), sort_keys=True, separators=(",", ":"))
        for g in grants
    ]


def run_script(service_factory, journal_path, kill_after=None):
    """Grant three jobs (+ one release); optionally kill after N grants.

    Returns the service that finished the script (restarted if killed).
    """
    config = ServiceConfig(total_storage_cores=24, journal_path=journal_path)
    service = service_factory(config)
    client = ServiceClient(service.address, deadline_s=10.0)
    script = [
        ("plan", "job-a", 4),
        ("plan", "job-b", 8),
        ("release", "job-a", 0),
        ("plan", "job-c", 12),
        ("plan", "job-a", 4),  # re-grant after its release: new seq, same digest
    ]
    grants = 0
    for kind, job, cores in script:
        if kind == "release":
            client.release(job)
            continue
        client.plan(job, num_samples=SMALL_SAMPLES, storage_cores=cores)
        grants += 1
        if kill_after is not None and grants == kill_after:
            service.kill()
            service = service_factory(config)
            client = ServiceClient(service.address, deadline_s=10.0)
    return service


class TestCrashRecovery:
    def test_killed_run_recovers_byte_identically(self, tmp_path, service_factory):
        clean = str(tmp_path / "clean.jsonl")
        crashed = str(tmp_path / "crashed.jsonl")
        run_script(service_factory, clean).drain()
        run_script(service_factory, crashed, kill_after=2).drain()
        assert canonical(read_grants(crashed)) == canonical(read_grants(clean))

    def test_restart_restores_grants_budget_and_seq(self, tmp_path, service_factory):
        journal = str(tmp_path / "journal.jsonl")
        service = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        client = ServiceClient(service.address)
        first = client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=8)
        service.kill()

        resumed = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        assert resumed.recovered_grants == 1
        assert resumed.ledger.committed() == {"job-a": 8}
        client = ServiceClient(resumed.address)
        # The client's post-crash re-send is answered from the journal.
        replayed = client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=8)
        assert replayed.replayed
        assert replayed.seq == first.seq
        assert replayed.splits == first.splits
        # New work continues the recovered sequence, never reusing seqs.
        fresh = client.plan("job-b", num_samples=SMALL_SAMPLES, storage_cores=4)
        assert fresh.seq > first.seq

    def test_recovery_after_graceful_drain_uses_checkpoint(self, tmp_path, service_factory):
        journal = str(tmp_path / "journal.jsonl")
        service = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        client = ServiceClient(service.address)
        client.plan("job-a", num_samples=SMALL_SAMPLES, storage_cores=8)
        client.release("job-a")
        service.drain()

        resumed = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        assert resumed.ledger.committed() == {}
        assert resumed.recovered_grants == 1

    def test_recovery_loads_only_grants_since_each_jobs_last_release(
        self, tmp_path, service_factory
    ):
        journal = str(tmp_path / "journal.jsonl")
        config = ServiceConfig(total_storage_cores=24, journal_path=journal)
        service = service_factory(config)
        client = ServiceClient(service.address)
        client.plan("job-a", num_samples=SMALL_SAMPLES, seed=1, storage_cores=4)
        client.release("job-a")
        second = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=2, storage_cores=4)
        client.plan("job-b", num_samples=SMALL_SAMPLES, storage_cores=4)
        client.release("job-b")
        service.kill()

        resumed = service_factory(config)
        assert resumed.recovered_grants == 3
        assert resumed.status_body()["grants"] == 1
        client = ServiceClient(resumed.address)
        replayed = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=2, storage_cores=4)
        assert replayed.replayed and replayed.seq == second.seq
        resent = client.plan("job-a", num_samples=SMALL_SAMPLES, seed=1, storage_cores=4)
        assert not resent.replayed

    def test_torn_tail_does_not_block_restart(self, tmp_path, service_factory):
        journal = str(tmp_path / "journal.jsonl")
        service = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        ServiceClient(service.address).plan(
            "job-a", num_samples=SMALL_SAMPLES, storage_cores=8
        )
        service.kill()
        with open(journal, "a") as handle:
            handle.write('{"kind":"grant","seq":99,"torn')  # crash mid-append

        resumed = service_factory(
            ServiceConfig(total_storage_cores=24, journal_path=journal)
        )
        assert resumed.recovered_grants == 1
        grant = ServiceClient(resumed.address).plan(
            "job-b", num_samples=SMALL_SAMPLES, storage_cores=4
        )
        assert grant.seq == 2  # the torn seq-99 line never happened
