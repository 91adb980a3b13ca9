"""``repro campaign run`` as a coordinated worker, and ``watch``.

The heavyweight acceptance (SIGKILL + steal + byte-identity) lives in
tests/coord/test_takeover.py against library-level workers; this module
covers the CLI wiring — create-or-join, recipe admission, graceful
completion, and the watch views — with one worker end to end.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.cli import main

TINY = [
    "--preset",
    "smoke",
    "--train-samples",
    "250",
    "--test-samples",
    "100",
    "--epochs",
    "6",
    "--post-epochs",
    "1",
]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("coord-cli")
    cache_before = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root / "cache")
    try:
        path = root / "model.npz"
        code = main(
            [
                "protect",
                "--model",
                "lenet",
                "--method",
                "clipact",
                "--out",
                str(path),
                *TINY,
            ]
        )
        assert code == 0
        yield str(path)
    finally:
        if cache_before is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = cache_before


def _worker_run(checkpoint, store, *extra):
    return main(
        [
            "campaign",
            "run",
            "--checkpoint",
            checkpoint,
            "--store",
            str(store),
            "--rates",
            "1e-5",
            "3e-5",
            *TINY,
            "--trials",
            "3",
            "--chunk",
            "2",
            *extra,
        ]
    )


class TestWorkerRun:
    def test_first_worker_creates_drains_and_matches_plain_run(
        self, checkpoint, tmp_path, capsys
    ):
        coord = tmp_path / "coord"
        assert _worker_run(checkpoint, coord, "--worker-id", "alpha") == 0
        out = capsys.readouterr().out
        assert "created campaign store" in out
        assert "worker alpha joining" in out
        assert "store complete" in out

        straight = tmp_path / "straight"
        code = main(
            [
                "campaign",
                "run",
                "--checkpoint",
                checkpoint,
                "--store",
                str(straight),
                "--rates",
                "1e-5",
                "3e-5",
                *TINY,
                "--trials",
                "3",
            ]
        )
        assert code == 0
        for store in (coord, straight):
            assert main(["campaign", "report", "--store", str(store)]) == 0
        capsys.readouterr()
        # The identity contract, through the CLI: a coordinated drain's
        # artifacts are byte-identical to a plain run's.
        assert (coord / "report.md").read_bytes() == (
            straight / "report.md"
        ).read_bytes()
        assert (coord / "atlas.json").read_bytes() == (
            straight / "atlas.json"
        ).read_bytes()

    def test_joining_a_complete_store_is_a_noop(
        self, checkpoint, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "alpha") == 0
        assert _worker_run(checkpoint, store, "--worker-id", "beta") == 0
        out = capsys.readouterr().out
        assert "worker beta: 0 trials" in out

    def test_limit_hands_back_then_a_peer_finishes(
        self, checkpoint, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "a", "--limit", "2") == 0
        out = capsys.readouterr().out
        assert "interrupted after 2 new trials" in out
        assert "worker a: 2 trials across 1 claims" in out
        assert _worker_run(checkpoint, store, "--worker-id", "b") == 0
        out = capsys.readouterr().out
        assert "store complete" in out

    def test_store_recording_runtime_key_admits_a_joining_worker(
        self, checkpoint, tmp_path, capsys
    ):
        """The retired ``runtime``, ``workers`` and ``replicas`` recipe
        keys are ignored on join."""
        straight = tmp_path / "straight"
        assert _worker_run(checkpoint, straight, "--worker-id", "solo") == 0

        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "a", "--limit", "2") == 0
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"].update(runtime=True, workers=2, replicas="auto")
        manifest_path.write_text(json.dumps(manifest, indent=2))
        assert _worker_run(checkpoint, store, "--worker-id", "b") == 0
        assert "store complete" in capsys.readouterr().out

        for path in (straight, store):
            assert main(["campaign", "report", "--store", str(path)]) == 0
        capsys.readouterr()
        for artifact in ("report.md", "atlas.json"):
            assert (store / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()

    def test_mismatched_recipe_is_refused_admission(
        self, checkpoint, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "alpha") == 0
        capsys.readouterr()
        code = main(
            [
                "campaign",
                "run",
                "--checkpoint",
                checkpoint,
                "--store",
                str(store),
                "--rates",
                "9e-4",
                *TINY,
                "--trials",
                "3",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "different settings" in err
        assert "rates" in err

    def test_two_workers_create_one_fresh_store_at_once(
        self, checkpoint, tmp_path, monkeypatch, capsys
    ):
        """Both workers find no store and create it together.  Each
        worker's manifest link waits until both have written their temp
        file, so the race happens every run: exactly one creates the
        store with the sweep, the other joins it, and no temp file is
        left behind."""
        import signal
        import threading

        # campaign run sets a SIGTERM handler, which only the main
        # thread may do; these workers are threads.
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        store = tmp_path / "store"
        manifest = os.fspath(store / "manifest.json")
        barrier = threading.Barrier(2, timeout=120)
        link = os.link
        waited = set()

        def racing_link(src, dst, *args, **kwargs):
            if os.fspath(dst) == manifest and threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                barrier.wait()
            return link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "link", racing_link)
        results = {}

        def work(worker_id):
            try:
                results[worker_id] = _worker_run(
                    checkpoint, store, "--worker-id", worker_id
                )
            except BaseException as error:  # reported by the assert below
                results[worker_id] = repr(error)

        threads = [
            threading.Thread(target=work, args=(worker_id,))
            for worker_id in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {"alpha": 0, "beta": 0}
        assert capsys.readouterr().out.count("created campaign store") == 1
        assert not list(store.glob("*.tmp"))

        monkeypatch.setattr(os, "link", link)
        straight = tmp_path / "straight"
        assert _worker_run(checkpoint, straight, "--worker-id", "solo") == 0
        for path in (straight, store):
            assert main(["campaign", "report", "--store", str(path)]) == 0
        for artifact in ("report.md", "atlas.json"):
            assert (store / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()


class TestWatch:
    def test_once_renders_workers_and_configs(self, checkpoint, tmp_path, capsys):
        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "alpha") == 0
        capsys.readouterr()
        assert main(["campaign", "watch", "--store", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(complete)" in out
        assert "worker alpha: released" in out

    def test_json_format_round_trips(self, checkpoint, tmp_path, capsys):
        store = tmp_path / "store"
        assert _worker_run(checkpoint, store, "--worker-id", "alpha") == 0
        capsys.readouterr()
        code = main(
            [
                "campaign",
                "watch",
                "--store",
                str(store),
                "--once",
                "--format",
                "json",
            ]
        )
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert status["workers"][0]["worker"] == "alpha"
        assert status["claims"] == []

    def test_sigint_stops_watch_without_a_traceback(self, checkpoint, tmp_path):
        """Ctrl-C ends a watch (HTTP endpoint included) with status 130
        and no Python traceback."""
        store = tmp_path / "store"
        code = main(
            [
                "campaign", "run", "--checkpoint", checkpoint, "--store", str(store),
                "--rates", "1e-5", "3e-5", *TINY, "--trials", "3", "--limit", "1",
            ]
        )
        assert code == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "watch",
                "--store", str(store), "--http", "0", "--interval", "0.1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Bounds the blocking reads below: a hung child is killed, its
        # pipes close and the reads return.
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            assert child.stdout.readline().startswith("watch endpoint: http://")
            assert child.stdout.readline()  # the first status render
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=30)
        finally:
            watchdog.cancel()
            child.kill()
            child.wait(timeout=30)
        assert child.returncode == 130, err
        assert "Traceback" not in err and "KeyboardInterrupt" not in err

    def test_watch_on_missing_store_errors(self, tmp_path, capsys):
        assert main(["campaign", "watch", "--store", str(tmp_path / "no")]) == 1
        assert "not a campaign store" in capsys.readouterr().err
