"""The crash-takeover acceptance: SIGKILL a worker, a peer finishes.

A coordinated worker is killed -9 mid-trial — lease frozen, claim
orphaned, journal segment possibly ending in a torn line.  A second
worker must (a) notice the corpse via lease staleness, (b) steal its
claimed range under an incremented fencing token, and (c) drain the
store to records — and report/atlas bytes — identical to a serial run
that never crashed.  No journaled trial may be lost, and no trial index
may resolve to two *different* records.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.coord import CampaignWorker, list_claims, list_leases
from repro.coord.lease import lease_dir
from repro.store import CampaignStore

from tests.conftest import drain_store
from tests.coord.conftest import (
    RATES,
    TRIALS,
    fault_models,
    make_campaign,
    make_store,
)

CHILD = os.path.join(os.path.dirname(__file__), "takeover_child.py")


def _spawn_victim(store_dir, worker_id="victim", nap_s=0.25):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, CHILD, str(store_dir), worker_id, str(nap_s)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_for_progress(store_dir, child, minimum=1, timeout_s=60.0):
    """Block until the victim has journaled >= minimum trials *and*
    holds a claim with work left — so the kill orphans a range a peer
    must steal (not one that is about to be garbage-collected)."""
    deadline = time.monotonic() + timeout_s
    with CampaignStore.open(store_dir) as store:
        while time.monotonic() < deadline:
            if child.poll() is not None:
                _, err = child.communicate()
                pytest.fail(
                    f"victim exited early ({child.returncode}): {err.decode()}"
                )
            store.refresh()
            if store.writer_counts().get("victim", 0) >= minimum and any(
                handle.claim.worker == "victim"
                and set(handle.claim.indices())
                - store.journaled(handle.claim.config)
                for handle in list_claims(store_dir)
            ):
                return
            time.sleep(0.05)
    pytest.fail("victim made no journal progress in time")


def _backdate_lease(store_dir, worker, by=60.0):
    path = os.path.join(lease_dir(store_dir), f"{worker}.json")
    stamp = os.stat(path).st_mtime - by
    os.utime(path, (stamp, stamp))


def _report_bytes(store_dir, out_dir):
    code = main(
        [
            "campaign",
            "report",
            "--store",
            str(store_dir),
            "--baseline",
            "0.9",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    return (
        (out_dir / "report.md").read_bytes(),
        (out_dir / "atlas.json").read_bytes(),
    )


def test_sigkilled_worker_is_taken_over_bit_identically(tmp_path, capsys):
    store_dir = tmp_path / "store"
    make_store(store_dir)

    child = _spawn_victim(store_dir)
    try:
        _wait_for_progress(store_dir, child)
        child.kill()  # SIGKILL: no release, no flush, maybe a torn line
        child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    with CampaignStore.open(store_dir) as store:
        journaled_by_victim = store.writer_counts()["victim"]
    assert journaled_by_victim >= 1

    # The victim's lease froze at death; a fresh corpse still reads as
    # live, so backdate its mtime to model the expiry window passing.
    _backdate_lease(store_dir, "victim")
    assert not list_leases(store_dir)["victim"].live

    rescuer = CampaignWorker(
        make_campaign(),
        store_dir,
        fault_models(),
        worker_id="rescuer",
        chunk=3,
        expiry_s=5.0,
        poll_s=0.05,
    )
    report = rescuer.run()
    assert report["complete"]
    assert report["steals"] >= 1  # the victim's claimed range was stolen

    # No lost trials, no divergent duplicates: the fold covers every
    # index exactly, and opening the store audits for conflicts.
    with CampaignStore.open(store_dir) as store:
        for key in store.config_keys():
            assert sorted(store.records(key)) == list(range(TRIALS))
        counts = store.writer_counts()
    assert counts["victim"] >= journaled_by_victim
    assert counts["rescuer"] >= 1

    # Byte-identity vs a one-worker drain that never crashed.
    serial_dir = tmp_path / "serial"
    drain_store(serial_dir, make_campaign(), fault_models(RATES))
    coord_report = _report_bytes(store_dir, tmp_path / "coord-out")
    serial_report = _report_bytes(serial_dir, tmp_path / "serial-out")
    capsys.readouterr()  # swallow the CLI report dumps
    assert coord_report == serial_report

    # The stolen claim carried a bumped fencing token while in flight;
    # by completion every claim file has been collected.
    assert os.listdir(os.path.join(store_dir, "coord", "claims")) == []

    # Worker names live in lease/segment *file names*, never in record
    # bytes — spot-check the victim's segment for identity-clean lines.
    segment = store_dir / "trials.victim.jsonl"
    first = segment.read_text().splitlines()[0]
    assert "victim" not in json.dumps(json.loads(first))
