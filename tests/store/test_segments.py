"""Per-worker journal segments: fold, dedup, conflict audit, refresh.

Every writer has its own append file (``trials.<worker>.jsonl``), so
the single-writer crash-safety argument holds *per file*.  Loading a
store folds every segment plus an older build's shared ``trials.jsonl``;
equal records journaled twice across files (the benign steal race)
dedup, unequal ones are corruption and must refuse to load.
"""

import json

import pytest

from repro.store import CampaignStore, StoreError
from tests.conftest import create_store, drain_store, open_writer
from tests.store.test_resume import RATES, make_campaign


def _fault_model(rate=None):
    from repro.fault import BitFlipFaultModel

    return BitFlipFaultModel.at_rate(RATES[0] if rate is None else rate)


def _make_store(path, campaign):
    create_store(path, campaign, [_fault_model()])
    with CampaignStore.open(path) as store:
        return store.config_keys()[0]


def _journal_into(path, campaign, segment, indices, key):
    """Evaluate ``indices`` and journal them via one segment writer."""
    with open_writer(path, campaign, segment=segment) as store:
        for outcome, sites in campaign.iter_range(_fault_model(), list(indices)):
            store.record(key, outcome, sites)


class TestSegmentWriters:
    def test_segment_writer_appends_to_its_own_file(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(3), key)
        assert len((tmp_path / "trials.alpha.jsonl").read_text().splitlines()) == 3
        # No shared journal is ever written.
        assert not (tmp_path / "trials.jsonl").exists()

    def test_invalid_segment_name_rejected(self, tmp_path):
        _make_store(tmp_path, make_campaign())
        for segment in ("", "a/b", "a.b", "a b"):
            with pytest.raises(StoreError, match="invalid segment name"):
                CampaignStore.open(tmp_path, segment=segment)

    def test_segment_property_exposed(self, tmp_path):
        _make_store(tmp_path, make_campaign())
        with CampaignStore.open(tmp_path, segment="alpha") as store:
            assert store.segment == "alpha"
        with CampaignStore.open(tmp_path) as store:
            assert store.segment is None


class TestFolding:
    def test_fold_equals_one_worker_run(self, tmp_path):
        straight_dir = tmp_path / "straight"
        drain_store(straight_dir, make_campaign(), [_fault_model()])
        reference = CampaignStore.open(straight_dir)
        try:
            key = reference.config_keys()[0]
            expected = reference.records(key)
        finally:
            reference.close()

        split_dir = tmp_path / "split"
        campaign = make_campaign()
        key = _make_store(split_dir, campaign)
        _journal_into(split_dir, campaign, "alpha", range(0, 5), key)
        _journal_into(split_dir, campaign, "beta", range(5, 8), key)
        with CampaignStore.open(split_dir) as folded:
            assert folded.records(key) == expected
            assert folded.complete(key)

    def test_equal_cross_file_duplicates_dedup(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 4), key)
        _journal_into(tmp_path, campaign, "beta", range(4, 8), key)
        # The benign steal race: beta's file also carries alpha's trial
        # 3, byte for byte (determinism makes re-evaluations equal).
        line = (tmp_path / "trials.alpha.jsonl").read_text().splitlines()[3]
        with open(tmp_path / "trials.beta.jsonl", "a", encoding="utf-8") as f:
            f.write(line + "\n")
        with CampaignStore.open(tmp_path) as store:
            assert sorted(store.records(key)) == list(range(8))

    def test_conflicting_cross_file_duplicate_refuses_to_load(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        raw = json.loads(
            (tmp_path / "trials.alpha.jsonl").read_text().splitlines()[1]
        )
        raw["a"] = 0.12345  # same trial index, different accuracy
        with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
            f.write(json.dumps(raw) + "\n")
        with pytest.raises(StoreError, match="conflict"):
            CampaignStore.open(tmp_path)

    def test_wall_clock_field_never_makes_a_conflict(self, tmp_path):
        """A legacy record carrying the trial's wall clock (``sec``, as
        older builds journaled it) folds with the same trial journaled
        without it: the field is read past, never compared."""
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        line = (tmp_path / "trials.alpha.jsonl").read_text().splitlines()[1]
        assert "sec" not in json.loads(line)
        with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
            f.write(line[:-1] + ',"sec":42.5}\n')
        with CampaignStore.open(tmp_path) as store:
            assert sorted(store.records(key)) == [0, 1]

    def test_same_file_duplicate_is_still_corruption(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", [0], key)
        segment = tmp_path / "trials.alpha.jsonl"
        line = segment.read_text().splitlines()[0]
        with open(segment, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        with pytest.raises(StoreError, match="duplicate"):
            CampaignStore.open(tmp_path)

    def test_foreign_torn_tail_is_tolerated(self, tmp_path):
        """A peer killed mid-append must not block other readers."""
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 3), key)
        with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
            f.write('{"c": "' + key + '", "t": 5, "a"')  # torn mid-record
        with CampaignStore.open(tmp_path) as store:
            assert sorted(store.records(key)) == [0, 1, 2]


class TestWriterCounts:
    def test_counts_records_per_writer(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 5), key)
        _journal_into(tmp_path, campaign, "beta", range(5, 7), key)
        with CampaignStore.open(tmp_path) as store:
            assert set(store.journaled(key)) == set(range(7))
            assert store.writer_counts() == {"alpha": 5, "beta": 2}
            assert set(store.journaled("no-such-config")) == set()

    def test_shared_journal_counts_under_empty_writer_name(self, tmp_path):
        """An older build's single writer appended to ``trials.jsonl``."""
        drain_store(tmp_path, make_campaign(), [_fault_model()], worker_id="w")
        (tmp_path / "trials.w.jsonl").rename(tmp_path / "trials.jsonl")
        with CampaignStore.open(tmp_path) as store:
            assert store.writer_counts() == {"": 8}

    def test_equal_copies_count_for_each_writer(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        line = (tmp_path / "trials.alpha.jsonl").read_text().splitlines()[1]
        with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
            f.write(line + "\n")
        with CampaignStore.open(tmp_path) as store:
            assert store.writer_counts() == {"alpha": 2, "beta": 1}
            assert set(store.journaled(key)) == {0, 1}

    def test_unparseable_line_is_refused(self, tmp_path):
        """A complete garbage line is corruption: the store refuses it
        (an unterminated one is only a tail in flight, see TestRefresh)."""
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
            f.write("garbage\n")
        with pytest.raises(StoreError, match="corrupt record on line 1"):
            CampaignStore.open(tmp_path)

class TestRefresh:
    """An open store folds what peers append after it was opened."""

    def test_picks_up_a_peer_line_appended_after_open(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        with CampaignStore.open(tmp_path) as store:
            _journal_into(tmp_path, campaign, "beta", range(2, 5), key)
            assert sorted(store.records(key)) == [0, 1]
            store.refresh()
            assert sorted(store.records(key)) == list(range(5))
            assert store.writer_counts() == {"alpha": 2, "beta": 3}

    def test_picks_up_a_torn_peer_tail_once_completed(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 3), key)
        lines = (tmp_path / "trials.alpha.jsonl").read_text().splitlines()
        segment = tmp_path / "trials.beta.jsonl"
        segment.write_text(lines[0] + "\n" + lines[1][:7])  # mid-append
        with CampaignStore.open(tmp_path) as store:
            assert store.writer_counts()["beta"] == 1
            store.refresh()  # still unterminated: waits
            assert store.writer_counts()["beta"] == 1
            with open(segment, "a", encoding="utf-8") as f:
                f.write(lines[1][7:] + "\n")
            store.refresh()
            assert store.writer_counts()["beta"] == 2
            assert sorted(store.records(key)) == [0, 1, 2]

    def test_raises_on_a_conflicting_peer_copy(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        raw = json.loads(
            (tmp_path / "trials.alpha.jsonl").read_text().splitlines()[1]
        )
        raw["a"] = 0.12345
        with CampaignStore.open(tmp_path) as store:
            with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
                f.write(json.dumps(raw) + "\n")
            with pytest.raises(StoreError, match="conflicts with the copy in"):
                store.refresh()

    def test_raises_on_a_complete_garbage_line(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 2), key)
        with CampaignStore.open(tmp_path) as store:
            with open(tmp_path / "trials.beta.jsonl", "w", encoding="utf-8") as f:
                f.write("garbage")
            store.refresh()  # unterminated: could be an append in flight
            with open(tmp_path / "trials.beta.jsonl", "a", encoding="utf-8") as f:
                f.write("\n")
            with pytest.raises(StoreError, match="corrupt record"):
                store.refresh()

    def test_raises_on_a_duplicate_within_one_file(self, tmp_path):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", [0], key)
        segment = tmp_path / "trials.alpha.jsonl"
        with CampaignStore.open(tmp_path) as store:
            with open(segment, "a", encoding="utf-8") as f:
                f.write(segment.read_text())
            with pytest.raises(StoreError, match="duplicate"):
                store.refresh()

    def test_unchanged_store_decodes_nothing(self, tmp_path, record_decodes):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        _journal_into(tmp_path, campaign, "alpha", range(0, 4), key)
        record_decodes.clear()
        with CampaignStore.open(tmp_path) as store:
            assert len(record_decodes) == 4
            store.refresh()
            store.refresh()
        assert len(record_decodes) == 4

    def test_own_appends_advance_without_a_reread(self, tmp_path, record_decodes):
        campaign = make_campaign()
        key = _make_store(tmp_path, campaign)
        with open_writer(tmp_path, campaign, segment="alpha") as store:
            for outcome, sites in campaign.iter_range(_fault_model(), range(3)):
                store.record(key, outcome, sites)
                store.refresh()
            assert store.writer_counts() == {"alpha": 3}
        assert record_decodes == []
