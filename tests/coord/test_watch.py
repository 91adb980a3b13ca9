"""Status views: coord_status payload, gauges, rendering, HTTP front."""

import json
import urllib.error
import urllib.request

import pytest

from repro.coord import (
    WatchApp,
    WorkerLease,
    coord_status,
    render_watch,
    update_gauges,
)
from repro.coord.scheduler import RangeScheduler
from repro.coord.watch import RateMeter
from repro.obs.metrics import default_registry
from repro.store import CampaignStore

from tests.coord.conftest import RATES, TRIALS
from tests.coord.test_worker import run_worker


@pytest.fixture(autouse=True)
def _clean_registry():
    default_registry().reset()
    yield
    default_registry().reset()


def poll(store_path):
    """One ``coord_status`` poll through a freshly opened store."""
    with CampaignStore.open(store_path) as store:
        return coord_status(store)


class TestCoordStatus:
    def test_plain_store_has_empty_coord_sections(self, store_path):
        status = poll(store_path)
        assert status["workers"] == []
        assert status["claims"] == []
        assert status["workers_live"] == 0
        assert status["steals"] == 0

    def test_drained_store_reports_workers_and_totals(self, store_path):
        run_worker(store_path, "alpha")
        status = poll(store_path)
        assert status["complete"]
        (row,) = status["workers"]
        assert row["worker"] == "alpha"
        assert row["released"] and not row["live"]
        assert row["trials"] == len(RATES) * TRIALS
        assert status["workers_live"] == 0

    def test_inflight_claims_and_live_leases_surface(self, store_path):
        with WorkerLease(store_path, "alpha"):
            scheduler = RangeScheduler(
                store_path,
                "alpha",
                trials=TRIALS,
                chunk=3,
                configs=["::rate=1e-03"],
            )
            scheduler.next_claim({}, {})
            status = poll(store_path)
        (claim,) = status["claims"]
        assert claim["worker"] == "alpha"
        assert (claim["start"], claim["stop"], claim["fence"]) == (0, 3, 1)
        (row,) = status["workers"]
        assert row["live"]
        assert status["workers_live"] == 1

    def test_polls_leave_no_clock_probe_behind(self, store_path):
        """Reading the filesystem clock must not litter the store."""
        run_worker(store_path, "alpha")
        poll(store_path)
        poll(store_path)
        assert list(store_path.rglob(".clock-*")) == []
        assert (store_path / "coord" / "leases").is_dir()


    def test_repeated_polls_of_an_unchanged_store_decode_nothing(
        self, store_path, record_decodes
    ):
        run_worker(store_path, "alpha")
        record_decodes.clear()
        with CampaignStore.open(store_path) as store:
            assert len(record_decodes) == len(RATES) * TRIALS  # open folds once
            first = coord_status(store)
            second = coord_status(store)
        assert len(record_decodes) == len(RATES) * TRIALS
        assert second["journaled"] == first["journaled"] == len(RATES) * TRIALS
        assert second["workers"][0]["trials"] == len(RATES) * TRIALS

    def test_polls_fold_lines_appended_after_open(self, store_path):
        with CampaignStore.open(store_path) as store:
            assert coord_status(store)["journaled"] == 0
            run_worker(store_path, "alpha", max_trials=5)
            status = coord_status(store)
        assert status["journaled"] == 5
        assert status["workers"][0]["trials"] == 5


class TestGauges:
    def test_update_gauges_feeds_worker_series(self, store_path):
        run_worker(store_path, "alpha")
        update_gauges(poll(store_path))
        snapshot = default_registry().snapshot()
        trials = snapshot["repro_campaign_worker_trials"]["series"]
        (series,) = trials
        assert series["labels"]["worker"] == "alpha"
        assert series["value"] == float(len(RATES) * TRIALS)
        live = snapshot["repro_campaign_worker_live"]["series"]
        assert live[0]["value"] == 0.0  # released

    def test_update_gauges_feeds_store_series(self, store_path):
        run_worker(store_path, "alpha")
        update_gauges(poll(store_path))
        snapshot = default_registry().snapshot()
        for name in ("journaled", "expected"):
            (series,) = snapshot[f"repro_campaign_status_{name}"]["series"]
            assert series["labels"]["store"] == str(store_path)
            assert series["value"] == float(len(RATES) * TRIALS)


class TestRendering:
    def test_render_covers_configs_workers_claims(self, store_path):
        run_worker(store_path, "alpha")
        text = render_watch(poll(store_path), rate=2.5)
        assert "(complete)" in text
        assert "2.5 trials/s" in text
        assert "config ::rate=0.001" in text
        assert "worker alpha: released" in text

    def test_render_head_shows_convergence_and_eta(self, store_path):
        status = poll(store_path)
        head = render_watch(status, rate=4.0).splitlines()[0]
        assert f"0/{len(RATES) * TRIALS} trials (running)" in head
        assert f"converged 0/{len(RATES)} configs" in head
        assert f"~{len(RATES) * TRIALS / 4.0:.0f}s remaining" in head
        assert "remaining" not in render_watch(status, rate=0.0)
        assert "remaining" not in render_watch(status)

    def test_render_shows_where_a_config_converged(self, store_path):
        """Older builds' in-store early stop marked configs converged."""
        manifest_path = store_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        key = manifest["configs"][0]["key"]
        manifest["configs"][0]["converged_at"] = 3
        manifest_path.write_text(json.dumps(manifest))
        text = render_watch(poll(store_path))
        assert f"config {key}: 0/3 mean=-, converged at 3" in text
        assert text.count("converged at") == 1

    def test_render_notes_stores_no_worker_joined(self, store_path):
        text = render_watch(poll(store_path))
        assert "workers: none yet" in text

    def test_rate_meter_needs_two_polls(self):
        meter = RateMeter()
        assert meter.update(0) is None
        assert meter.update(10) is not None


class TestHttpFront:
    def test_watch_app_serves_campaign_status(self, store_path):
        from repro.serve.aio import AsyncReproServer

        run_worker(store_path, "alpha")
        server = AsyncReproServer(WatchApp(store_path))
        server.start()
        try:
            status = json.load(
                urllib.request.urlopen(server.url + "/v1/campaign")
            )
            assert status["complete"]
            assert status["workers"][0]["worker"] == "alpha"
            health = json.load(
                urllib.request.urlopen(server.url + "/v1/healthz")
            )
            assert health["status"] == "ok"
            assert health["journaled"] == len(RATES) * TRIALS
            prom = (
                urllib.request.urlopen(
                    server.url + "/v1/metrics?format=prometheus"
                )
                .read()
                .decode()
            )
            assert "repro_campaign_worker_trials" in prom
        finally:
            server.stop()

    def test_inference_routes_404_on_the_watch_front(self, store_path):
        from repro.serve.aio import AsyncReproServer

        server = AsyncReproServer(WatchApp(store_path))
        server.start()
        try:
            for path, method, body in (
                ("/v1/models", "GET", None),
                ("/v1/predict", "POST", b"{}"),
            ):
                request = urllib.request.Request(
                    server.url + path, data=body, method=method
                )
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request)
                assert caught.value.code == 404
        finally:
            server.stop()
