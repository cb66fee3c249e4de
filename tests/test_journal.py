"""The JSONL journal contract, tested once for both stores that use it.

The run store and the campaign event log share one writer and reader
(:mod:`repro.obs.journal`).  Each case runs against both: a torn final
line is skipped by readers and repaired by the next append, a writer
killed mid-append never costs a committed record, and a terminated
corrupt line still raises with its line number.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import EventLogError, RunStoreError
from repro.obs.events import Event, EventLog, follow_events, read_events
from repro.obs.runstore import RunRecord, RunStore
from repro.obs.trend import filter_history

#: What a writer killed mid-append leaves behind: a line with no newline.
FRAGMENT = '{"kind": "run", "lab'


class _Runs:
    """Adapter: the run store under the shared contract."""

    error = RunStoreError

    def __init__(self, root):
        self.store = RunStore(str(root / "runs"))
        self.path = self.store.runs_path

    def append(self, labels, pad=""):
        for label in labels:
            self.store.append(RunRecord(kind="run", label=label,
                                        extra={"pad": pad}))

    def labels(self):
        return [record.label for record in self.store.records()]


class _Events:
    """Adapter: the campaign event log under the shared contract."""

    error = EventLogError

    def __init__(self, root):
        self.path = str(root / "events.jsonl")
        self.log = EventLog(self.path)

    def append(self, labels, pad=""):
        self.log.append([Event(event="queued", unit=label, t=0.0,
                               campaign="c", detail={"pad": pad})
                         for label in labels])

    def labels(self):
        return [event.unit for event in read_events(self.path)]


STORES = {"runs": _Runs, "events": _Events}

#: A multi-MB append per store: many event lines in one batch, or one
#: run record with a multi-MB payload.
BIG_BATCH = {"runs": (["big"], "x" * 6_000_000),
             "events": ([f"u{i}" for i in range(10_000)], "x" * 300)}


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path)


def _tear(path):
    with open(path, "a") as handle:
        handle.write(FRAGMENT)


def _assert_clean(path):
    """Every line of the file is terminated and parses."""
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.endswith(b"\n")
    for line in data.splitlines():
        json.loads(line)


class TestJournalContract:
    def test_readers_skip_an_unterminated_tail(self, store):
        store.append(["a", "b"])
        _tear(store.path)
        assert store.labels() == ["a", "b"]

    def test_append_after_a_torn_tail_keeps_every_record(self, store):
        store.append(["a"])
        _tear(store.path)
        store.append(["b", "c"])
        assert store.labels() == ["a", "b", "c"]
        _assert_clean(store.path)

    def test_terminated_corrupt_line_raises_with_its_line_number(self,
                                                                 store):
        store.append(["a"])
        with open(store.path, "a") as handle:
            handle.write(FRAGMENT + "\n")
        _tear(store.path)
        with pytest.raises(store.error, match=r":2: corrupt"):
            store.labels()

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_writer_killed_mid_append_loses_no_committed_record(
            self, kind, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        store = STORES[kind](tmp_path)
        store.append(["first"])
        before = os.path.getsize(store.path)
        labels, pad = BIG_BATCH[kind]
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_append_then_hang,
                            args=(kind, tmp_path, labels, pad))
        child.start()
        try:
            deadline = time.monotonic() + 60
            while (os.path.getsize(store.path) <= before
                   and time.monotonic() < deadline):
                pass
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL
        committed = store.labels()  # every terminated line parses
        assert committed[0] == "first"
        assert committed[1:] == labels[:len(committed) - 1]
        store.append(["next"])
        assert store.labels() == committed + ["next"]
        _assert_clean(store.path)


def _append_then_hang(kind, root, labels, pad):
    """Child side of the kill test: one big append, then wait to die."""
    STORES[kind](root).append(labels, pad)
    time.sleep(120)


class TestFollowEvents:
    def test_follow_skips_a_torn_tail_until_an_append_repairs_it(
            self, tmp_path):
        store = _Events(tmp_path)
        store.append(["a"])
        _tear(store.path)
        pending = [lambda: store.append(["b"])]

        def stop():
            if not pending:
                return True
            pending.pop()()
            return False

        units = [event.unit for event in follow_events(
            store.path, poll_seconds=0.0, stop=stop)]
        assert units == ["a", "b"]


class TestRunStoreIds:
    def test_a_stale_parent_index_and_lock_are_ignored(self, tmp_path):
        # Older builds kept a derived index.json and a .lock beside the
        # journal.  This index is one record behind yet claims the
        # journal's byte size, so their staleness rule would trust it.
        store = RunStore(str(tmp_path / "runs"))
        for label in ("a", "b"):
            store.append(RunRecord(kind="run", label=label))
        first = next(store.records())
        index = json.dumps({
            "version": 1, "next_seq": 2, "records": [first.summary()],
            "journal_bytes": os.path.getsize(store.runs_path)})
        (tmp_path / "runs" / "index.json").write_text(index)
        (tmp_path / "runs" / ".lock").write_text("")
        assert store.append(RunRecord(kind="run", label="c")) == "000003-run"
        assert [r["label"] for r in filter_history(store)] == ["c", "b", "a"]
        assert (tmp_path / "runs" / "index.json").read_text() == index
        assert sorted(os.listdir(store.root)) == [
            ".lock", "index.json", "runs.jsonl"]

    def test_append_after_a_torn_tail_takes_the_next_id(self, tmp_path):
        # The fragment names a higher id, but an uncommitted line never
        # counts toward the next one.
        store = RunStore(str(tmp_path / "runs"))
        store.append(RunRecord(kind="run", label="a"))
        with open(store.runs_path, "a") as handle:
            handle.write('{"record_id": "000009-run", "kind": "ru')
        assert store.append(RunRecord(kind="run", label="b")) == "000002-run"
        assert [r.record_id for r in store.records()] == [
            "000001-run", "000002-run"]
        _assert_clean(store.runs_path)
