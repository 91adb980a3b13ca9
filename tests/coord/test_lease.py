"""Lease-file protocol: heartbeat liveness judged by the filesystem clock."""

import os
import pickle

import pytest

from repro.coord import CoordError, WorkerLease, fs_now, list_leases
from repro.coord.lease import (
    ensure_coord_dirs,
    lease_dir,
    read_lease,
    validated_worker_id,
)


class TestWorkerId:
    @pytest.mark.parametrize("worker", ["w1", "host-3_a", "ABC_123"])
    def test_accepts_flat_names(self, worker):
        assert validated_worker_id(worker) == worker

    @pytest.mark.parametrize("worker", ["", "a/b", "a b", "dot.dot", "é"])
    def test_rejects_path_hostile_names(self, worker):
        with pytest.raises(CoordError, match="invalid worker id"):
            validated_worker_id(worker)


class TestFsNow:
    def test_monotone_enough_for_staleness(self, tmp_path):
        first = fs_now(tmp_path)
        second = fs_now(tmp_path)
        assert second >= first

    def test_creates_coord_dirs(self, tmp_path):
        fs_now(tmp_path)
        assert os.path.isdir(lease_dir(tmp_path))


class TestLeaseLifecycle:
    def test_acquire_write_release_roundtrip(self, tmp_path):
        lease = WorkerLease(tmp_path, "alpha", expiry_s=30.0)
        with lease:
            info = list_leases(tmp_path)["alpha"]
            assert info.live
            assert not info.released
            assert info.expiry_s == 30.0
        info = list_leases(tmp_path)["alpha"]
        assert info.released
        assert not info.live

    def test_heartbeat_advances_the_beat_counter(self, tmp_path):
        with WorkerLease(tmp_path, "alpha", expiry_s=0.1) as lease:
            deadline = 200
            while list_leases(tmp_path)["alpha"].beat == 0 and deadline:
                deadline -= 1
                lease._stop.wait(0.01)
            assert list_leases(tmp_path)["alpha"].beat > 0

    def test_progress_tallies_surface_in_the_file(self, tmp_path):
        with WorkerLease(tmp_path, "alpha") as lease:
            lease.note_steal()
            lease.note_trials(3)
            lease.note_trials(2)
            info = list_leases(tmp_path)["alpha"]
            assert (info.steals, info.trials) == (1, 5)

    def test_duplicate_live_id_refused(self, tmp_path):
        with WorkerLease(tmp_path, "alpha"):
            with pytest.raises(CoordError, match="already holds a live lease"):
                WorkerLease(tmp_path, "alpha").acquire()

    def test_released_id_is_reusable(self, tmp_path):
        with WorkerLease(tmp_path, "alpha"):
            pass
        with WorkerLease(tmp_path, "alpha"):
            assert list_leases(tmp_path)["alpha"].live

    def test_expired_id_is_reusable(self, tmp_path):
        lease = WorkerLease(tmp_path, "alpha", expiry_s=5.0)
        lease.acquire()
        lease._stop.set()  # simulate a crash: heartbeat dies, no release
        lease._thread.join()
        _backdate(tmp_path, "alpha", by=60.0)
        with WorkerLease(tmp_path, "alpha", expiry_s=5.0):
            assert list_leases(tmp_path)["alpha"].live

    def test_release_is_idempotent_and_reentrant(self, tmp_path):
        lease = WorkerLease(tmp_path, "alpha")
        lease.release()  # never acquired: no-op, no file
        assert list_leases(tmp_path) == {}
        lease.acquire()
        lease.release()
        lease.release()
        assert list_leases(tmp_path)["alpha"].released


class TestStaleness:
    def test_frozen_mtime_goes_stale(self, tmp_path):
        """The SIGKILL signature: file stops moving, age outgrows expiry."""
        lease = WorkerLease(tmp_path, "alpha", expiry_s=5.0)
        lease.acquire()
        lease._stop.set()
        lease._thread.join()
        assert list_leases(tmp_path)["alpha"].live  # fresh corpse, still live
        _backdate(tmp_path, "alpha", by=60.0)
        info = list_leases(tmp_path)["alpha"]
        assert not info.live
        assert info.age_s > info.expiry_s

    def test_unreadable_lease_reads_as_absent(self, tmp_path):
        ensure_coord_dirs(tmp_path)
        path = os.path.join(lease_dir(tmp_path), "junk.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert read_lease(path, fs_now(tmp_path)) is None
        assert list_leases(tmp_path) == {}

    @pytest.mark.parametrize("expiry", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_expiry_rejected(self, tmp_path, expiry):
        """A NaN expiry would never be live and spin the heartbeat."""
        with pytest.raises(CoordError, match="expiry"):
            WorkerLease(tmp_path, "alpha", expiry_s=expiry)
        assert not (tmp_path / "coord").exists()


def test_lease_is_not_picklable(tmp_path):
    """The lease's lock makes a stray pickle fail loudly."""
    with pytest.raises(TypeError, match="pickle"):
        pickle.dumps(WorkerLease(tmp_path, "alpha"))


def _backdate(store_path, worker, by):
    path = os.path.join(lease_dir(store_path), f"{worker}.json")
    stamp = os.stat(path).st_mtime - by
    os.utime(path, (stamp, stamp))
