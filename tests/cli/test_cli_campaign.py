"""The ``repro campaign`` command group: run (and resume) / watch / report."""

import json
import os
import shutil
import signal
import threading

import pytest

from repro.cli import main
from tests.conftest import journal_lines

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
    """One smoke-trained protected checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("campaign-cli")
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


def _run(checkpoint, store, *extra):
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
            *extra,
        ]
    )


class TestRoundTrip:
    def test_run_status_report(self, checkpoint, tmp_path, capsys):
        store = tmp_path / "store"
        assert _run(checkpoint, store) == 0
        out = capsys.readouterr().out
        assert "campaign store" in out
        assert "rate 1.0e-05" in out
        assert "store complete" in out

        assert main(["campaign", "watch", "--store", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        assert "6/6 trials (complete)" in out
        assert ": 3/3 mean=" in out

        assert main(["campaign", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "## Vulnerability atlas" in out
        assert "### By bit position" in out
        report = (store / "report.md").read_text()
        assert "rate=1e-05" in report
        atlas = json.loads((store / "atlas.json").read_text())
        assert atlas["trials"] == 6
        manifest = json.loads((store / "manifest.json").read_text())
        assert atlas["baseline"] == manifest["meta"]["clean_accuracy"]

    def test_limit_interrupts_then_resume_completes(
        self, checkpoint, tmp_path, capsys
    ):
        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert main(["campaign", "report", "--store", str(straight)]) == 0
        capsys.readouterr()

        resumed = tmp_path / "resumed"
        assert _run(checkpoint, resumed, "--limit", "2") == 0
        out = capsys.readouterr().out
        assert "interrupted after 2 new trials" in out
        assert f"repro campaign run --store {resumed}" in out

        # The store holds the recipe: no other flag is needed.
        assert main(["campaign", "run", "--store", str(resumed)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "2/6 trials journaled" in out
        assert "store complete" in out

        assert main(["campaign", "report", "--store", str(resumed)]) == 0
        capsys.readouterr()
        # The acceptance check: byte-identical artifacts either way.
        assert (resumed / "report.md").read_text() == (
            straight / "report.md"
        ).read_text()
        assert (resumed / "atlas.json").read_text() == (
            straight / "atlas.json"
        ).read_text()

    def test_rerunning_a_complete_store_is_a_cheap_no_op(
        self, checkpoint, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert _run(checkpoint, store) == 0
        capsys.readouterr()
        assert _run(checkpoint, store) == 0
        out = capsys.readouterr().out
        assert "0 new trials journaled" in out

    def test_rerun_decodes_each_record_once(
        self, checkpoint, tmp_path, record_decodes
    ):
        """One open of the store per invocation: the recipe check, the
        drain and the closing ``rate`` lines share one fold."""
        store = tmp_path / "store"
        assert _run(checkpoint, store) == 0
        records = len(journal_lines(store))
        assert records == 6
        record_decodes.clear()
        assert _run(checkpoint, store) == 0
        assert len(record_decodes) == records


class TestSegmentFold:
    def test_two_runs_fold_to_the_straight_report(
        self, checkpoint, tmp_path, capsys
    ):
        """A store started by one ``campaign run`` and finished by
        another's segment reports like a straight run."""
        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert main(["campaign", "report", "--store", str(straight)]) == 0

        mixed = tmp_path / "mixed"
        assert _run(checkpoint, mixed, "--limit", "2") == 0
        assert _run(checkpoint, mixed, "--worker-id", "peer") == 0
        assert "store complete" in capsys.readouterr().out
        assert (mixed / "trials.peer.jsonl").read_text().count("\n") == 4
        assert journal_lines(mixed) == journal_lines(straight)

        assert main(["campaign", "report", "--store", str(mixed)]) == 0
        capsys.readouterr()
        for artifact in ("report.md", "atlas.json"):
            assert (mixed / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()

    def test_concurrent_runs_split_the_work(
        self, checkpoint, tmp_path, monkeypatch, capsys
    ):
        """Two runs started together on one store drain it between them:
        every trial is evaluated once, by one of the two workers."""
        # Each run installs a SIGTERM handler, which only the main
        # thread may do; these runs are threads.
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        store = tmp_path / "store"
        results = {}

        def work(worker_id):
            try:
                results[worker_id] = _run(
                    checkpoint, store, "--worker-id", worker_id, "--chunk", "1",
                    "--poll", "0.01",
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
        assert capsys.readouterr().out.count("store complete") == 2

        assert main(["campaign", "watch", "--store", str(store), "--once",
                     "--format", "json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert status["claims"] == []
        trials = {row["worker"]: row["trials"] for row in status["workers"]}
        assert set(trials) == {"alpha", "beta"}
        assert sum(trials.values()) == status["expected"] == 6

        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert journal_lines(store) == journal_lines(straight)


class TestOldStores:
    def test_parent_format_store_finishes_with_bare_run(
        self, checkpoint, tmp_path, capsys
    ):
        """A partial store in the format written before ``campaign
        resume`` was folded into ``campaign run`` (identity ``"shard":
        null``, run recipe in meta) finishes with ``--store`` alone."""
        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert main(["campaign", "report", "--store", str(straight)]) == 0

        old = tmp_path / "old"
        assert _run(checkpoint, old, "--limit", "2") == 0
        manifest = json.loads((old / "manifest.json").read_text())
        assert manifest["identity"]["shard"] is None
        for field in ("checkpoint", "rates", "preset", "trials", "seed"):
            assert field in manifest["meta"]
        assert main(["campaign", "run", "--store", str(old)]) == 0
        assert main(["campaign", "report", "--store", str(old)]) == 0
        assert "store complete" in capsys.readouterr().out
        for artifact in ("report.md", "atlas.json"):
            assert (old / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()

    def _parent_layout(self, checkpoint, store, limit, rewrite=lambda line: line):
        """A partial store as the parent build's single writer left it:
        records in the shared ``trials.jsonl``, no ``coord/`` directory."""
        assert _run(checkpoint, store, "--limit", limit, "--worker-id", "w") == 0
        segment = store / "trials.w.jsonl"
        lines = segment.read_text().splitlines()
        (store / "trials.jsonl").write_text(
            "".join(rewrite(line) + "\n" for line in lines)
        )
        segment.unlink()
        shutil.rmtree(store / "coord")
        return lines

    def test_parent_layout_store_resumes_byte_identically(
        self, checkpoint, tmp_path, capsys
    ):
        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert main(["campaign", "report", "--store", str(straight)]) == 0

        old = tmp_path / "old"
        self._parent_layout(checkpoint, old, "2")
        capsys.readouterr()
        assert main(["campaign", "run", "--store", str(old)]) == 0
        out = capsys.readouterr().out
        assert "2/6 trials journaled" in out
        assert "store complete" in out
        assert "(4 new trials journaled)" in out
        assert main(["campaign", "report", "--store", str(old)]) == 0
        capsys.readouterr()
        for artifact in ("report.md", "atlas.json"):
            assert (old / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()
        assert journal_lines(old) == journal_lines(straight)

    def test_journal_with_wall_clock_field_resumes_byte_identically(
        self, checkpoint, tmp_path, capsys
    ):
        """Journal lines from builds that recorded each trial's wall
        clock (a trailing ``"sec"``) replay and resume like new ones."""
        straight = tmp_path / "straight"
        assert _run(checkpoint, straight) == 0
        assert main(["campaign", "report", "--store", str(straight)]) == 0

        old = tmp_path / "old"
        lines = self._parent_layout(
            checkpoint, old, "3", rewrite=lambda line: line[:-1] + ',"sec":0.5}'
        )
        assert len(lines) == 3
        assert main(["campaign", "run", "--store", str(old)]) == 0
        assert "3/6 trials journaled" in capsys.readouterr().out
        assert main(["campaign", "report", "--store", str(old)]) == 0
        capsys.readouterr()
        for artifact in ("report.md", "atlas.json"):
            assert (old / artifact).read_bytes() == (
                straight / artifact
            ).read_bytes()
        resumed = [
            line
            for line in journal_lines(old)
            if b'"sec"' not in line
        ]
        assert len(resumed) == 3
        assert set(resumed) | {line.encode() for line in lines} == set(
            journal_lines(straight)
        )


    def test_store_from_the_sigmoid_fitrelu_is_refused_but_readable(
        self, checkpoint, tmp_path, capsys
    ):
        """A store recording the numerics tag of the sigmoid-form FitReLU
        (the conv tag alone) cannot grow, but still reports and watches."""
        from repro.autograd.ops_conv import NUMERICS
        from repro.store.store import _identity_hash

        store = tmp_path / "old"
        assert _run(checkpoint, store, "--limit", "2") == 0
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["identity"]["numerics"] == f"{NUMERICS}+fitrelu-tanh"
        manifest["identity"]["numerics"] = NUMERICS
        manifest["config_hash"] = _identity_hash(manifest["identity"])
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()

        assert main(["campaign", "run", "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert f"'numerics' = '{NUMERICS}'" in err
        assert "fresh store" in err
        assert main(["campaign", "report", "--store", str(store)]) == 0
        assert (store / "report.md").exists()
        assert main(["campaign", "watch", "--store", str(store), "--once"]) == 0
        assert "2/6" in capsys.readouterr().out


class TestErrors:
    def test_status_on_missing_store(self, tmp_path, capsys):
        argv = ["campaign", "watch", "--store", str(tmp_path / "no"), "--once"]
        assert main(argv) == 1
        assert "not a campaign store" in capsys.readouterr().err

    def test_resume_on_missing_store(self, tmp_path, capsys):
        """Without a store to resume, ``run`` needs the recipe flags."""
        assert main(["campaign", "run", "--store", str(tmp_path / "no")]) == 1
        assert "needs --checkpoint and --rates" in capsys.readouterr().err
        assert not (tmp_path / "no").exists()

    def test_run_rejects_mismatched_store(self, checkpoint, tmp_path, capsys):
        store = tmp_path / "store"
        assert _run(checkpoint, store) == 0
        capsys.readouterr()
        # Same store, different trial count + rates: recipe mismatch,
        # not a silent mix of incompatible journals (or a silently
        # ignored --rates request).
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--checkpoint",
                    checkpoint,
                    "--store",
                    str(store),
                    "--rates",
                    "1e-4",
                    *TINY,
                    "--trials",
                    "5",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "different settings" in err
        assert "rates" in err
        assert "trials" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--trials", "5"], "trials"),
            (["--rates", "1e-4"], "rates"),
            (["--preset", "quick"], "preset"),
            (["--checkpoint", "other.npz"], "checkpoint"),
        ],
    )
    def test_passed_recipe_flag_is_verified_alone(
        self, checkpoint, tmp_path, capsys, flags, field
    ):
        """Recipe flags given to a resume are checked, never ignored."""
        store = tmp_path / "store"
        assert _run(checkpoint, store, "--limit", "1") == 0
        capsys.readouterr()
        assert main(["campaign", "run", "--store", str(store), *flags]) == 1
        err = capsys.readouterr().err
        assert f"(mismatched: {field}" in err

    def test_zero_trials_is_a_clean_error(self, checkpoint, tmp_path, capsys):
        """``--trials 0`` ends in an ``error:`` line, not a traceback,
        and leaves no store behind."""
        assert _run(checkpoint, tmp_path / "s", "--trials", "0") == 1
        assert "error: trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_bad_limit(self, checkpoint, tmp_path, capsys):
        """Rejected before the model loads or the store is created."""
        assert _run(checkpoint, tmp_path / "s", "--limit", "0") == 1
        assert "--limit" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--limit", "-1"),
            ("--chunk", "0"),
            ("--chunk", "-3"),
            ("--expiry", "0"),
            ("--expiry", "-1"),
            ("--expiry", "nan"),
            ("--expiry", "inf"),
            ("--poll", "-0.5"),
            ("--poll", "nan"),
        ],
    )
    def test_bad_worker_flag(self, checkpoint, tmp_path, capsys, flag, value):
        """Refused before the store is created or its clean accuracy
        measured: a NaN expiry would let peers steal at once and spin
        the heartbeat, a NaN or negative poll would busy-spin."""
        assert _run(checkpoint, tmp_path / "s", flag, value) == 1
        assert f"{flag.lstrip('-')} must be" in capsys.readouterr().err
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_bad_worker_id_refused_before_the_store_is_created(
        self, checkpoint, tmp_path, capsys
    ):
        """The id names the journal segment the store is opened as, so
        it is checked before the store is created."""
        assert _run(checkpoint, tmp_path / "s", "--worker-id", "a.b") == 1
        assert "invalid worker id" in capsys.readouterr().err
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_serve_store_is_gone(self, checkpoint, tmp_path):
        """``campaign run`` is the one way to drain a store."""
        with pytest.raises(SystemExit) as raised:
            main(["campaign", "serve-store", "--checkpoint", checkpoint,
                  "--store", str(tmp_path / "s"), "--rates", "1e-5"])
        assert raised.value.code == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("interval", ["0", "-2"])
    def test_bad_watch_interval(self, tmp_path, capsys, interval):
        argv = ["campaign", "watch", "--store", str(tmp_path), "--interval", interval]
        assert main(argv) == 1
        assert "--interval" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["inf", "nan"])
    def test_non_finite_watch_interval_refused_before_any_poll(
        self, tmp_path, capsys, interval
    ):
        """An infinite sleep overflows the platform's time_t after the
        first poll; refuse it before polling or binding --http."""
        from tests.coord.conftest import make_store

        make_store(tmp_path / "s")
        argv = ["campaign", "watch", "--store", str(tmp_path / "s"),
                "--interval", interval, "--http", "0"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "--interval must be finite and > 0" in err
        assert out == ""


class TestReplicasCLI:
    def test_replica_batched_artifacts_byte_identical_to_off(
        self, checkpoint, tmp_path, capsys, monkeypatch
    ):
        """End to end through the CLI: journal, report.md and atlas.json
        of the lane path equal those of a per-trial evaluation (what
        the retired ``--replicas off`` ran)."""
        from repro.eval.evaluator import BoundAccuracy

        lanes = tmp_path / "lanes"
        assert _run(checkpoint, lanes) == 0
        assert main(["campaign", "report", "--store", str(lanes)]) == 0

        # Without the hook the campaign injects and calls the closure.
        monkeypatch.delattr(BoundAccuracy, "lane_accuracies")
        per_trial = tmp_path / "per-trial"
        assert _run(checkpoint, per_trial) == 0
        assert main(["campaign", "report", "--store", str(per_trial)]) == 0
        capsys.readouterr()

        assert journal_lines(lanes) == journal_lines(per_trial)
        for artifact in ("report.md", "atlas.json"):
            assert (lanes / artifact).read_bytes() == (
                per_trial / artifact
            ).read_bytes()

    def test_report_renders_density_column(self, checkpoint, tmp_path, capsys):
        store = tmp_path / "store"
        assert _run(checkpoint, store) == 0
        assert main(["campaign", "report", "--store", str(store)]) == 0
        capsys.readouterr()
        assert "SDC density" in (store / "report.md").read_text()
        atlas = json.loads((store / "atlas.json").read_text())
        hit = [row for row in atlas["layers"] if row["trials"]]
        assert all("sdc_density" in row for row in hit)

    def test_garbage_replicas_spelling_is_an_argparse_error(self, checkpoint):
        """``--replicas`` is gone: any spelling of it is refused."""
        with pytest.raises(SystemExit):
            _run(checkpoint, "ignored", "--replicas", "many")

    def test_campaign_run_takes_no_replicas_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--help"])
        assert "--replicas" not in capsys.readouterr().out


class TestPlanIsTheOnlyPath:
    def test_default_flags_evaluate_through_replica_lanes(
        self, checkpoint, tmp_path, monkeypatch, capsys
    ):
        """No flag selects the compiled path: every ``campaign run``
        trial is a ReplicaPlan lane."""
        from repro.runtime import ReplicaPlan

        calls = {"prepare": 0, "lane_forward": 0}
        for name in calls:
            original = getattr(ReplicaPlan, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ReplicaPlan, name, counted)
        assert _run(checkpoint, tmp_path / "store") == 0
        assert "store complete" in capsys.readouterr().out
        assert calls["prepare"] > 0
        assert calls["lane_forward"] > 0

    @pytest.mark.parametrize(
        "retired",
        [
            {"runtime": False},
            {"runtime": True},
            {"workers": 2},
            {"replicas": "auto"},
            {"replicas": "off"},
            {"replicas": 3},
        ],
        ids=[
            "runtime-false",
            "runtime-true",
            "workers-2",
            "replicas-auto",
            "replicas-off",
            "replicas-3",
        ],
    )
    def test_store_recording_runtime_key_resumes_byte_identical(
        self, checkpoint, tmp_path, capsys, retired
    ):
        """Stores whose recipe records a retired key (``runtime``, the
        process-pool ``workers`` or the lane-group ``replicas``) still
        resume through ``campaign run``; the key is ignored."""
        fresh = tmp_path / "fresh"
        assert _run(checkpoint, fresh) == 0
        assert main(["campaign", "report", "--store", str(fresh)]) == 0

        old = tmp_path / "old"
        assert _run(checkpoint, old, "--limit", "2") == 0
        manifest_path = old / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"].update(retired)
        manifest_path.write_text(json.dumps(manifest, indent=2))
        assert _run(checkpoint, old) == 0
        assert main(["campaign", "report", "--store", str(old)]) == 0
        out = capsys.readouterr().out
        assert "store complete" in out

        for artifact in ("report.md", "atlas.json"):
            assert (old / artifact).read_bytes() == (fresh / artifact).read_bytes()
