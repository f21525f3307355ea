"""Flight-recorder journal: recording semantics, causal provenance,
exporters, the operator CLI, and farm-level determinism.

The acceptance bar for the audit plane (docs/OBSERVABILITY.md):

* recording is bounded and causally parented (flow first, VLAN
  fallback, ``ROOT`` to start a fresh chain);
* a fixed seed replays to a byte-identical journal, so ``why <flow>``
  output is reproducible across runs;
* journaling off leaves a farm run's determinism digest untouched —
  the journal observes, it never perturbs.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter
from unittest import mock

import pytest

from repro.farm import FarmConfig
from repro.obs import __main__ as obs_cli
from repro.obs.export import render_chrome_trace, render_jsonl
from repro.obs import journal as journal_module
from repro.obs.journal import (
    DEFAULT_CAPACITY,
    DIGEST_CHUNK,
    JOURNAL_SCHEMA,
    NULL_JOURNAL,
    Journal,
    ROOT,
    journal_digest,
)
from repro.obs.provenance import (
    chain_for,
    deepest_chains,
    event_counts,
    flows_in,
    render_why,
    resolve_flow,
)
from repro.parallel.tasks import streaming_farm_shard
from repro.reporting.report import ActivityReport, render_report

pytestmark = pytest.mark.obs


def make_journal(capacity: int = DEFAULT_CAPACITY) -> Journal:
    """A journal on a hand-wound clock, bounded by patching the
    constant a journal reads when it is built."""
    clock = [0.0]
    with mock.patch.object(journal_module, "DEFAULT_CAPACITY", capacity):
        journal = Journal(clock=lambda: clock[0])
    journal.tick = lambda dt=1.0: clock.__setitem__(0, clock[0] + dt)
    return journal


class TestRecording:
    def test_auto_parent_prefers_flow_over_vlan(self):
        journal = make_journal()
        journal.record("flow.created", flow="f1", vlan=1, parent=ROOT)
        journal.record("trigger.fired", vlan=1)
        journal.record("verdict.issued", flow="f1", vlan=1)
        a, _fired, b = journal.events()
        assert a.parent is None
        assert b.parent == a.seq

    def test_vlan_fallback_when_flow_unknown(self):
        journal = make_journal()
        journal.record("trigger.fired", vlan=7)
        journal.record("lifecycle", flow="new-flow", vlan=7)
        fired, lifecycle = journal.events()
        assert lifecycle.parent == fired.seq

    def test_root_sentinel_suppresses_auto_parenting(self):
        journal = make_journal()
        journal.record("barrier.quarantine", vlan=3)
        journal.record("flow.created", flow="f2", vlan=3, parent=ROOT)
        _quarantine, fresh = journal.events()
        assert fresh.parent is None

    def test_bounded_eviction_is_counted(self):
        journal = make_journal(capacity=3)
        for index in range(5):
            journal.record("lifecycle", flow=f"f{index}")
        assert len(journal) == 3
        assert journal.evicted == 2
        assert journal.recorded == 5
        snap = journal.snapshot()
        assert [event["flow"] for event in snap["events"]] == \
            ["f2", "f3", "f4"]

    def test_flow_alias_binding(self):
        journal = make_journal()
        journal.bind_flow("vlan4/tcp 10.0.0.2:1234", "gold/vlan4/mux7")
        assert journal.flow_for("vlan4/tcp 10.0.0.2:1234") == \
            "gold/vlan4/mux7"
        assert journal.flow_for("unknown") is None

    def test_fields_come_back_in_the_order_recorded(self):
        journal = make_journal()
        journal.record("verdict.issued", flow="f", verdict="DROP",
                       policy="p", annotation="", rules=3)
        journal.record("lifecycle", vlan=2, zulu=1, alpha=None)
        order = [["verdict", "policy", "annotation", "rules"],
                 ["zulu", "alpha"]]
        assert [list(event.fields) for event in journal.events()] == order
        assert [list(event["fields"])
                for event in journal.snapshot()["events"]] == order
        assert [list(event.to_dict()) for event in journal.events()] == [
            ["seq", "t", "kind", "flow", "vlan", "parent", "fields"]] * 2

    def test_null_journal_is_inert(self):
        assert NULL_JOURNAL.enabled is False
        assert NULL_JOURNAL.record("verdict.issued", flow="f") is None
        assert NULL_JOURNAL.events() == []
        assert NULL_JOURNAL.snapshot()["enabled"] is False


class ListJournal:
    """Reference model: the journal's bookkeeping on plain lists and
    insertion-ordered dicts, every eviction a delete-the-first — the
    O(capacity) form the live journal's deques replaced."""

    def __init__(self, clock, capacity):
        self.clock = clock
        self.capacity = capacity
        self.events = []
        self.seq = self.recorded = self.evicted = 0
        self.last_for_flow, self.last_for_vlan, self.aliases = {}, {}, {}

    def _remember(self, table, key, value):
        if key not in table and len(table) >= self.capacity:
            del table[next(iter(table))]
        table[key] = value

    def record(self, kind, flow=None, vlan=None, parent=None, **fields):
        if parent is ROOT:
            parent = None
        elif parent is None:
            if flow is not None:
                parent = self.last_for_flow.get(flow)
            if parent is None and vlan is not None:
                parent = self.last_for_vlan.get(vlan)
        event = {"seq": self.seq, "t": round(self.clock(), 9),
                 "kind": kind, "flow": flow, "vlan": vlan,
                 "parent": parent, "fields": fields}
        self.seq += 1
        self.recorded += 1
        if len(self.events) >= self.capacity:
            del self.events[0]
            self.evicted += 1
        self.events.append(event)
        if flow is not None:
            self._remember(self.last_for_flow, flow, event["seq"])
        if vlan is not None:
            self._remember(self.last_for_vlan, vlan, event["seq"])
        return event

    def bind_flow(self, alias, flow_id):
        self._remember(self.aliases, alias, flow_id)

    def snapshot(self):
        return {"schema": JOURNAL_SCHEMA, "enabled": True,
                "time": round(self.clock(), 9),
                "recorded": self.recorded, "evicted": self.evicted,
                "events": list(self.events)}


class TestAtCapacity:
    """What the bounded journal does when full: drop-oldest, counted
    by ``evicted``, byte-identical to the list model, at the cost of a
    filling journal (docs/OBSERVABILITY.md, "The journal at
    capacity")."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 7, 32])
    def test_matches_list_model_past_capacity(self, capacity, seed):
        rng = random.Random(seed)
        journal = make_journal(capacity=capacity)
        model = ListJournal(journal.clock, capacity)
        # More distinct flows, VLANs and aliases than capacity, so all
        # three FIFO-bounded maps evict as well as the event store.
        flows = [f"flow-{n}" for n in range(3 * capacity)]
        vlans = list(range(2, 2 + 2 * capacity))
        for step in range(max(200, 5 * capacity)):
            journal.tick(rng.choice([0.0, 0.25]))
            op = rng.random()
            if op < 0.7:
                kwargs = dict(
                    flow=rng.choice(flows + [None]),
                    vlan=rng.choice(vlans + [None]),
                    parent=rng.choice([None, None, ROOT, 0]), step=step)
                journal.record("k", **kwargs)
                live = journal.events()[-1]
                assert live.to_dict() == model.record("k", **kwargs)
            else:
                alias, flow = rng.choice(flows), rng.choice(flows)
                journal.bind_flow(alias, flow)
                model.bind_flow(alias, flow)
            for alias in rng.sample(flows, 3):
                assert journal.flow_for(alias) == model.aliases.get(alias)
        assert journal.recorded >= 4 * capacity
        assert journal.evicted == model.evicted == \
            journal.recorded - capacity
        assert len(journal) == capacity
        snap = journal.snapshot()
        assert snap == model.snapshot()
        assert journal.digest() == journal_digest(model.snapshot())

    def test_full_journal_costs_what_a_filling_one_does(self):
        """Guard on O(1) eviction: per-event cost over 20k events at
        capacity within 3x of the cost below it.  At the default
        capacity the list-and-dict form was 16x (a 65,536-pointer
        memmove plus a dead-prefix rescan per event)."""
        capacity, batch = 65536, 20000

        def per_event(journal, start):
            best = float("inf")
            for repeat in range(3):
                base = start + repeat * batch
                started = perf_counter()
                for n in range(base, base + batch):
                    journal.record("k", flow=n, vlan=n)
                best = min(best, perf_counter() - started)
            return best / batch

        filling = make_journal(capacity=capacity)
        below = per_event(filling, 0)          # 60k events: still filling
        assert filling.evicted == 0
        full = make_journal(capacity=capacity)
        for n in range(2 * capacity):
            full.record("k", flow=n, vlan=n)
        assert full.evicted == capacity
        at = per_event(full, 2 * capacity)
        assert full.evicted == capacity + 3 * batch
        assert at <= 3.0 * below, (
            f"{at * 1e6:.2f} us/event at capacity vs "
            f"{below * 1e6:.2f} us/event below it")


def whole_text_digest(snapshot: dict) -> str:
    """The digest's definition, as it was computed before it streamed:
    sha256 over the whole canonical text at once."""
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


class TestStreamingDigest:
    """``Journal.digest()`` encodes a chunk of events at a time and
    never builds the snapshot; ``journal_digest`` goes through the same
    encoder.  Both must hash exactly the whole snapshot's canonical
    text, at and around every chunk boundary."""

    # Around the chunk's boundaries, and around those of the 1,024-event
    # chunk the digest once took (multiples of today's chunk as well).
    @pytest.mark.parametrize("events", [
        0, 1, DIGEST_CHUNK - 1, DIGEST_CHUNK, DIGEST_CHUNK + 1,
        3 * DIGEST_CHUNK + 7, 1023, 1024, 1025, 3079])
    @pytest.mark.parametrize("capacity", [DEFAULT_CAPACITY, 1000])
    @pytest.mark.parametrize("fields", [False, True])
    def test_matches_the_whole_text(self, events, capacity, fields):
        """With ``fields`` each event carries non-ASCII text, floats,
        lists and a nested dict; without, a count only."""
        rng = random.Random(events)
        journal = make_journal(capacity=capacity)
        for n in range(events):
            journal.tick(rng.random())
            payload = dict(
                policy="Botfarm — «strict»", rate=rng.random() * 1e3,
                ratio=n / 7, big=1e300, rules=["a", "☃"],
                nested={"z": 1, "a": [0.1, None, True]}) if fields else {}
            journal.record(
                rng.choice(["flow.created", "verdict.issued"]),
                flow=f"vlan{n % 9}/ü-{n % 13}", vlan=n % 9,
                parent=rng.choice([None, ROOT]), count=n, **payload)
        assert journal.evicted == max(0, events - capacity)
        snapshot = journal.snapshot()
        assert len(snapshot["events"]) == min(events, capacity)
        expected = whole_text_digest(snapshot)
        assert journal.digest() == journal_digest(snapshot) == expected

    @pytest.mark.parametrize("snapshot", [
        {}, {"events": []}, {"schema": JOURNAL_SCHEMA},
        {"b": 1, "events": [{"k": "é"}], "a": [2.5]},
        NULL_JOURNAL.snapshot()])
    def test_any_snapshot_shape(self, snapshot):
        # Merged snapshots carry keys of their own; any dict encodes.
        assert journal_digest(snapshot) == whole_text_digest(snapshot)


class TestProvenance:
    def events(self):
        journal = make_journal()
        journal.record("flow.created", flow="f1", vlan=1, parent=ROOT)
        journal.tick()
        journal.record("verdict.issued", flow="f1", vlan=1,
                       verdict="allow")
        journal.tick()
        journal.record("verdict.applied", flow="f1", vlan=1)
        journal.record("flow.created", flow="f2", vlan=2, parent=ROOT)
        return journal.snapshot()["events"]

    def test_resolve_flow_substring_and_ambiguity(self):
        events = self.events()
        assert resolve_flow(events, "f1") == "f1"
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_flow(events, "f")
        with pytest.raises(ValueError, match="no journaled flow"):
            resolve_flow(events, "missing")

    def test_chain_and_counts(self):
        events = self.events()
        chain = chain_for(events, "f1")
        assert [event["kind"] for event in chain] == \
            ["flow.created", "verdict.issued", "verdict.applied"]
        assert event_counts(events) == {
            "flow.created": 2, "verdict.applied": 1,
            "verdict.issued": 1}
        assert flows_in(events) == ["f1", "f2"]

    def test_deepest_chains_rank_by_depth(self):
        events = self.events()
        chains = deepest_chains(events, n=2)
        assert chains[0][0] == 3
        assert [event["kind"] for event in chains[0][1]] == \
            ["flow.created", "verdict.issued", "verdict.applied"]

    def test_render_why_shows_indented_tree(self):
        text = render_why(self.events(), "f1")
        assert text.startswith("why f1")
        assert "verdict.issued" in text
        assert "(3 events)" in text


class TestExporters:
    def snapshot(self):
        journal = make_journal()
        journal.record("flow.created", flow="f1", vlan=1, parent=ROOT)
        return journal.snapshot()

    def test_jsonl_round_trips(self):
        header, event = map(json.loads,
                            render_jsonl(self.snapshot()).splitlines())
        assert header["schema"] == JOURNAL_SCHEMA
        assert event["kind"] == "flow.created"

    def test_chrome_trace_emits_instants(self):
        doc = json.loads(render_chrome_trace(
            journal_snap=self.snapshot()))
        instants = [event for event in doc["traceEvents"]
                    if event["ph"] == "i"]
        assert instants and instants[0]["name"] == "flow.created"
        assert instants[0]["tid"] == "vlan1"


class TestFarmDeterminism:
    @pytest.fixture(scope="class")
    def shard_runs(self):
        params = dict(subfarms=1, inmates=2, rounds=6, duration=60.0)
        return {
            "off": streaming_farm_shard(3, journal=False, **params),
            "on": streaming_farm_shard(3, journal=True, **params),
            "replay": streaming_farm_shard(3, journal=True, **params),
        }

    def test_journal_never_perturbs_the_run(self, shard_runs):
        assert shard_runs["on"]["digest"] == shard_runs["off"]["digest"]
        assert "journal" not in shard_runs["off"]

    def test_same_seed_same_journal(self, shard_runs):
        assert shard_runs["on"]["journal_digest"] == \
            shard_runs["replay"]["journal_digest"]

    def test_why_is_reproducible(self, shard_runs):
        events = shard_runs["on"]["journal"]["events"]
        replay = shard_runs["replay"]["journal"]["events"]
        flow = flows_in(events)[0]
        assert render_why(events, flow) == render_why(replay, flow)
        assert "flow.created" in render_why(events, flow)

    def test_farm_config_round_trips_journal_knobs(self):
        config = FarmConfig(seed=5, journal=True)
        clone = FarmConfig.from_dict(config.to_dict())
        assert clone.journal is True
        assert clone.to_dict() == config.to_dict()


class TestDecisionAuditSection:
    def snapshot(self):
        journal = make_journal()
        journal.record("flow.created", flow="f1", vlan=1, parent=ROOT)
        journal.record("verdict.issued", flow="f1", vlan=1,
                       verdict="allow")
        journal.record("barrier.quarantine", vlan=1, protocol="eth",
                       reason="runt frame", frame_index=0)
        return journal.snapshot()

    def test_render_report_includes_audit(self):
        report = ActivityReport()
        report.subfarms["sf"] = {}
        report.attach_journal(self.snapshot())
        text = render_report(report)
        assert "Decision audit" in text
        assert "barrier.quarantine" in text
        assert "frame #0" in text

    def test_no_journal_no_audit_section(self):
        report = ActivityReport()
        report.subfarms["sf"] = {}
        assert "Decision audit" not in render_report(report)


class TestCli:
    @pytest.fixture(scope="class")
    def journal_file(self, tmp_path_factory):
        params = dict(subfarms=1, inmates=2, rounds=6, duration=60.0)
        shard = streaming_farm_shard(3, journal=True, **params)
        path = tmp_path_factory.mktemp("obs") / "journal.json"
        path.write_text(json.dumps(shard["journal"]))
        return str(path)

    def test_snapshot_jsonl(self, journal_file, capsys):
        assert obs_cli.main(["snapshot", "--journal", journal_file,
                             "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["schema"] == JOURNAL_SCHEMA

    def test_grep_exit_codes(self, journal_file, capsys):
        assert obs_cli.main(["grep", "--journal", journal_file,
                             "flow.created"]) == 0
        assert capsys.readouterr().out.strip()
        assert obs_cli.main(["grep", "--journal", journal_file,
                             "no-such-kind"]) == 1

    def test_why_substring_resolution(self, journal_file, capsys):
        events = json.loads(open(journal_file).read())["events"]
        flow = flows_in(events)[0]
        assert obs_cli.main(["why", "--journal", journal_file,
                             flow]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"why {flow}")
        # Unknown flow or event ids exit 2 with a friendly listing of
        # known flows, never a bare traceback.
        assert obs_cli.main(["why", "--journal", journal_file,
                             "definitely-missing"]) == 2
        err = capsys.readouterr().err
        assert "no journaled flow matches" in err
        assert "known flows" in err
        assert obs_cli.main(["why", "--journal", journal_file,
                             "seq:999999"]) == 2
        assert "no such event" in capsys.readouterr().err
        assert obs_cli.main(["why", "--journal", journal_file,
                             f"seq:{events[0]['seq']}"]) == 0
        assert capsys.readouterr().out.startswith("why event")

    def test_diff_identical_and_differing(self, journal_file,
                                          tmp_path, capsys):
        other = tmp_path / "other.json"
        doc = json.loads(open(journal_file).read())
        other.write_text(json.dumps(doc))
        assert obs_cli.main(["diff", journal_file, str(other)]) == 0
        assert "identical" in capsys.readouterr().out
        doc["events"] = doc["events"][:1]
        other.write_text(json.dumps(doc))
        assert obs_cli.main(["diff", journal_file, str(other)]) == 1
        assert "events[" in capsys.readouterr().out
