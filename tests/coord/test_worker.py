"""The coordinated drain loop: admission, cooperation, byte-identity."""

import pickle
import threading

import pytest

from repro.coord import CampaignWorker, CoordError, list_claims
from repro.store import CampaignStore, StoreError, config_key

from tests.coord.conftest import (
    RATES,
    TRIALS,
    fault_models,
    make_campaign,
    make_store,
    serial_records,
)


def run_worker(store_path, worker_id, **kwargs):
    worker = CampaignWorker(
        make_campaign(),
        store_path,
        fault_models(),
        worker_id=worker_id,
        chunk=kwargs.pop("chunk", 3),
        **kwargs,
    )
    return worker.run()


def open_records(store_path):
    with CampaignStore.open(store_path) as store:
        return {
            key: store.records(key) for key in store.config_keys()
        }


class TestSingleWorker:
    def test_drains_to_completion(self, tmp_path, store_path):
        report = run_worker(store_path, "alpha")
        assert report["complete"]
        assert not report["stopped"]
        assert report["trials"] == len(RATES) * TRIALS
        assert report["steals"] == 0
        assert list_claims(store_path) == []  # every claim handed back

    def test_records_equal_serial_run(self, tmp_path, store_path):
        run_worker(store_path, "alpha")
        assert open_records(store_path) == serial_records()

    def test_budget_stops_then_resume_completes(self, tmp_path, store_path):
        first = run_worker(store_path, "alpha", max_trials=5)
        assert first["stopped"] and not first["complete"]
        assert first["trials"] == 5
        second = run_worker(store_path, "alpha2")
        assert second["complete"]
        assert second["trials"] == len(RATES) * TRIALS - 5
        assert open_records(store_path) == serial_records()

    def test_complete_store_is_a_cheap_noop(self, store_path):
        run_worker(store_path, "alpha")
        report = run_worker(store_path, "beta")
        assert report["complete"]
        assert (report["trials"], report["claims"]) == (0, 0)


class TestTwoWorkers:
    def test_concurrent_workers_cooperate_bit_identically(
        self, tmp_path, store_path
    ):
        reports = {}

        def drain(name):
            reports[name] = run_worker(store_path, name, poll_s=0.05)

        threads = [
            threading.Thread(target=drain, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(report["complete"] for report in reports.values())
        total = sum(report["trials"] for report in reports.values())
        # Benign races around claim hand-off may duplicate a trial; the
        # fold dedups equal records, so the journals never under-cover.
        assert total >= len(RATES) * TRIALS
        assert open_records(store_path) == serial_records()


class TestAdmission:
    def test_unregistered_config_rejected(self, tmp_path):
        store_dir = tmp_path / "store"
        make_store(store_dir, rates=RATES[:1])  # sweep half-registered
        worker = CampaignWorker(make_campaign(), store_dir, fault_models())
        with pytest.raises(CoordError, match="not registered"):
            worker.run()

    def test_wrong_identity_rejected(self, tmp_path):
        store_dir = tmp_path / "store"
        make_store(store_dir)
        worker = CampaignWorker(make_campaign(seed=99), store_dir, fault_models())
        with pytest.raises(StoreError):
            worker.run()

    def test_bad_worker_id_rejected_up_front(self, store_path):
        with pytest.raises(CoordError, match="invalid worker id"):
            CampaignWorker(
                make_campaign(), store_path, fault_models(), worker_id="a/b"
            )

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("chunk", 0, "chunk"),
            ("expiry_s", 0.0, "expiry"),
            ("expiry_s", -1.0, "expiry"),
            ("expiry_s", float("nan"), "expiry"),
            ("expiry_s", float("inf"), "expiry"),
            ("poll_s", -0.5, "poll"),
            ("poll_s", float("nan"), "poll"),
        ],
    )
    def test_bad_knobs_rejected_up_front(self, store_path, option, value, message):
        with pytest.raises(CoordError, match=message):
            CampaignWorker(
                make_campaign(), store_path, fault_models(), **{option: value}
            )
        assert not (store_path / "coord").exists()


class TestLeaseTally:
    def test_trials_are_tallied_once_per_claim(self, store_path, monkeypatch):
        """Each tally is an fsync'd lease rewrite: one per claim, and the
        lease's count still matches the worker's segment."""
        from repro.coord import WorkerLease, list_leases

        tallies = []
        note_trials = WorkerLease.note_trials

        def counted(self, count):
            tallies.append(count)
            note_trials(self, count)

        monkeypatch.setattr(WorkerLease, "note_trials", counted)
        report = run_worker(store_path, "alpha", chunk=3)
        assert len(tallies) == report["claims"] < report["trials"]
        assert sum(tallies) == report["trials"] == len(RATES) * TRIALS
        assert list_leases(store_path)["alpha"].trials == report["trials"]


class TestStopRequest:
    def test_stop_hands_back_cleanly(self, store_path):
        worker = CampaignWorker(
            make_campaign(),
            store_path,
            fault_models(),
            worker_id="alpha",
            chunk=2,
        )
        worker.request_stop()  # before run(): loop exits immediately
        report = worker.run()
        assert report["stopped"] and not report["complete"]
        assert report["trials"] == 0
        assert list_claims(store_path) == []

    def test_segments_attribute_trials_to_workers(self, store_path):
        run_worker(store_path, "alpha", max_trials=5)
        run_worker(store_path, "beta")
        progress = CampaignStore.scan_progress(store_path)
        assert progress.segments["alpha"] == 5
        assert progress.segments["beta"] == len(RATES) * TRIALS - 5
        key = config_key("", fault_models()[0].describe())
        assert progress.journaled(key) == set(range(TRIALS))


def test_worker_is_not_picklable(store_path):
    """Workers are rebuilt per process, never shipped: the stop event's
    lock makes a stray pickle fail loudly."""
    worker = CampaignWorker(make_campaign(), store_path, fault_models())
    with pytest.raises(TypeError, match="pickle"):
        pickle.dumps(worker)
