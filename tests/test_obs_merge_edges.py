"""The one labelled merge (``repro.obs.merge.merge``), both schemas.

The happy path (N shards, disjoint labels) is covered by the campaign
tests; these pin the edges the merge must not mishandle — disjoint
metric keys merged without labels, duplicate shard labels (a caller
bug: must raise, not silently interleave causal chains), every
collision error naming both sources — then state the whole contract
once as a hypothesis property over random shard snapshots of both
schemas, and check serial-vs-parallel digest parity over a real
campaign.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.export import SNAPSHOT_SCHEMA
from repro.obs.journal import JOURNAL_SCHEMA, Journal, journal_digest
from repro.obs.merge import SHAPES, label_identity, merge

pytestmark = pytest.mark.obs


def metric_snapshot(counters=None, gauges=None, histograms=None,
                    time=0.0, enabled=True):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "enabled": enabled,
        "time": time,
        "counters": dict(counters or {}),
        "gauges": dict(gauges or {}),
        "histograms": dict(histograms or {}),
    }


def journal_snapshot(events, time=0.0, evicted=0, enabled=True):
    return {
        "schema": JOURNAL_SCHEMA,
        "enabled": enabled,
        "time": time,
        "recorded": len(events) + evicted,
        "evicted": evicted,
        "events": events,
    }


def event(seq, t, kind, flow=None, vlan=None, parent=None, **fields):
    return {"seq": seq, "t": t, "kind": kind, "flow": flow,
            "vlan": vlan, "parent": parent, "fields": fields}


def canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


class TestSnapshotMergeEdges:
    def test_disjoint_metric_keys_merge_without_labels(self):
        a = metric_snapshot(counters={"flows{subfarm=a}": 3})
        b = metric_snapshot(counters={"flows{subfarm=b}": 5})
        merged = merge([a, b])
        assert merged["counters"] == {"flows{subfarm=a}": 3,
                                      "flows{subfarm=b}": 5}
        assert sorted(merged) == sorted(a)

    def test_colliding_keys_without_labels_raise(self):
        a = metric_snapshot(counters={"flows": 3})
        b = metric_snapshot(counters={"flows": 5})
        with pytest.raises(ValueError, match="collision"):
            merge([a, b])

    def test_duplicate_shard_labels_collide(self):
        a = metric_snapshot(counters={"flows": 3})
        b = metric_snapshot(counters={"flows": 5})
        with pytest.raises(ValueError, match="duplicate shard labels"):
            merge([a, b], labels=[{"shard": "0"}, {"shard": "0"}])


class TestJournalMergeEdges:
    def test_duplicate_shard_labels_raise(self):
        a = journal_snapshot([event(0, 1.0, "flow.created")])
        b = journal_snapshot([event(0, 2.0, "flow.created")])
        with pytest.raises(ValueError, match="duplicate shard labels"):
            merge([a, b], labels=[{"shard": "0"}, {"shard": "0"}])

    def test_empty_journals_merge_clean(self):
        merged = merge([journal_snapshot([]), journal_snapshot([])],
                       labels=[{"shard": "0"}, {"shard": "1"}])
        assert merged["events"] == []
        assert merged["recorded"] == 0

    def test_causal_chains_stay_shard_local(self):
        a = journal_snapshot([
            event(0, 1.0, "flow.created", flow="f"),
            event(1, 2.0, "verdict.issued", flow="f", parent=0),
        ])
        b = journal_snapshot([
            event(0, 1.5, "flow.created", flow="f"),
        ])
        merged = merge([a, b], labels=[{"shard": "0"}, {"shard": "1"}])
        by_seq = {e["seq"]: e for e in merged["events"]}
        # Same per-shard seq and flow id, yet no cross-shard aliasing.
        assert by_seq["shard=0/1"]["parent"] == "shard=0/0"
        assert by_seq["shard=0/0"]["flow"] == "shard=0/f"
        assert by_seq["shard=1/0"]["flow"] == "shard=1/f"

    def test_merge_order_independent(self):
        a = journal_snapshot([event(0, 1.0, "flow.created", vlan=1)])
        b = journal_snapshot([event(0, 0.5, "flow.created", vlan=2)])
        forward = merge([a, b], labels=[{"shard": "0"}, {"shard": "1"}])
        backward = merge([b, a], labels=[{"shard": "1"}, {"shard": "0"}])
        assert canonical(forward) == canonical(backward)
        # Sorted by (t, shard, seq): shard 1's earlier event leads.
        assert [e["seq"] for e in forward["events"]] == \
            ["shard=1/0", "shard=0/0"]

    def test_schema_mismatch_raises(self):
        a = journal_snapshot([])
        b = dict(journal_snapshot([]), schema="gq.journal/999")
        with pytest.raises(ValueError, match="schema mismatch"):
            merge([a, b], labels=[{"shard": "0"}, {"shard": "1"}])
        # One merge, so the two schemas cannot be mixed either, and a
        # retired schema has no reader.
        with pytest.raises(ValueError, match="schema mismatch"):
            merge([a, metric_snapshot()])
        with pytest.raises(ValueError, match="unknown schema"):
            merge([dict(metric_snapshot(), schema="gq.telemetry/1")])

    def test_duplicate_labels_error_names_both_sources(self):
        a = journal_snapshot([event(0, 1.0, "flow.created")])
        b = journal_snapshot([event(0, 2.0, "flow.created")])
        with pytest.raises(ValueError,
                           match="duplicate shard labels") as excinfo:
            merge([a, b], labels=[{"shard": "4"}, {"shard": "4"}],
                  sources=["shard 4 @ hostA:9000",
                           "shard 4 @ hostB:9000"])
        message = str(excinfo.value)
        assert "shard 4 @ hostA:9000" in message
        assert "shard 4 @ hostB:9000" in message

    def test_snapshot_collision_error_names_both_sources(self):
        a = metric_snapshot(counters={"flows": 3})
        b = metric_snapshot(counters={"flows": 5})
        with pytest.raises(ValueError, match="collision") as excinfo:
            merge([a, b], sources=["shard 0 @ hostA:9000",
                                   "shard 0 @ hostB:9000"])
        message = str(excinfo.value)
        assert "shard 0 @ hostA:9000" in message
        assert "shard 0 @ hostB:9000" in message

    def test_three_host_merge_is_arrival_order_independent(self):
        # Three shards as if returned by three different hosts, merged
        # in every arrival order: byte-identical journals each time.
        import itertools

        shards = [
            (str(index), journal_snapshot(
                [event(0, 1.0 + 0.1 * index, "flow.created",
                       flow="f", vlan=index),
                 event(1, 2.0 - 0.2 * index, "verdict.issued",
                       flow="f", parent=0)]))
            for index in range(3)
        ]
        renders = set()
        for order in itertools.permutations(range(3)):
            merged = merge(
                [shards[i][1] for i in order],
                labels=[{"shard": shards[i][0]} for i in order],
                sources=[f"shard {shards[i][0]} @ host{shards[i][0]}"
                         for i in order])
            renders.add(canonical(merged))
        assert len(renders) == 1
        only = json.loads(renders.pop())
        assert len(only["events"]) == 6

    def test_live_journal_snapshots_round_trip_through_merge(self):
        clock = [0.0]
        journals = []
        for shard in range(2):
            journal = Journal(clock=lambda: clock[0])
            clock[0] = 1.0 + shard
            journal.record("flow.created", flow="tcp/1", vlan=1)
            journal.record("verdict.issued", flow="tcp/1", vlan=1,
                           verdict="allow")
            root, _verdict = journal.events()
            assert root.parent is None
            journals.append(journal.snapshot())
        merged = merge(journals, labels=[{"shard": "0"}, {"shard": "1"}])
        assert merged["recorded"] == 4
        assert journal_digest(merged) == journal_digest(merged)


# ----------------------------------------------------------------------
# The whole contract, once: random shard snapshots of both schemas ×
# label sets × arrival orders.
# ----------------------------------------------------------------------
IDENTITIES = ["flows", "flows{subfarm=a}", "flows{subfarm=b,vlan=3}",
              "rtt{vlan=3}", "depth"]
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.25])  # ties on purpose
FLOWS = st.sampled_from([None, "f", "sub/vlan3/mux7/t1.000000"])

metric_sections = st.dictionaries(st.sampled_from(IDENTITIES),
                                  st.integers(0, 9), max_size=4)
histogram_sections = st.dictionaries(
    st.sampled_from(IDENTITIES),
    st.fixed_dictionaries({"count": st.integers(0, 5),
                           "buckets": st.just([[0.5, 1]])}),
    max_size=2)

telemetry_shards = st.builds(
    metric_snapshot, counters=metric_sections, gauges=metric_sections,
    histograms=histogram_sections, time=TIMES, enabled=st.booleans())


@st.composite
def journal_shards(draw):
    count = draw(st.integers(0, 5))
    events = [
        event(seq, draw(TIMES), draw(st.sampled_from(
            ["flow.created", "verdict.issued", "flow.evicted"])),
            flow=draw(FLOWS), vlan=draw(st.sampled_from([None, 3])),
            parent=draw(st.sampled_from([None] + list(range(seq)))))
        for seq in range(count)
    ]
    return journal_snapshot(events, time=draw(TIMES),
                            evicted=draw(st.integers(0, 3)),
                            enabled=draw(st.booleans()))


@st.composite
def shard_sets(draw):
    """(snapshots, unique label sets, source names, a shuffled order)."""
    shards = draw(st.lists(
        draw(st.sampled_from([telemetry_shards, journal_shards()])),
        min_size=1, max_size=4))
    extra = draw(st.sampled_from([{}, {"host": "b"}, {"campaign": "7"}]))
    labels = [dict(extra, shard=str(index))
              for index in range(len(shards))]
    sources = [f"shard {index} @ host{index}:9000"
               for index in range(len(shards))]
    order = draw(st.permutations(range(len(shards))))
    return shards, labels, sources, order


def prefix_of(labels) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def model_merge(shards, labels):
    """The contract, written the slow obvious way."""
    shape = SHAPES[shards[0]["schema"]]
    out = {"schema": shards[0]["schema"],
           "enabled": any(s["enabled"] for s in shards),
           "time": max(s["time"] for s in shards)}
    for section in shape.sums:
        out[section] = sum(s[section] for s in shards)
    stamped = []
    for snap, label_set in zip(shards, labels):
        prefix = prefix_of(label_set)
        for original in snap.get("events", ()):
            copy = dict(original, shard=prefix,
                        seq=f"{prefix}/{original['seq']}")
            for ref in ("parent", "flow"):
                if original[ref] is not None:
                    copy[ref] = f"{prefix}/{original[ref]}"
            stamped.append(((original["t"], prefix, original["seq"]),
                            copy))
    if shape.events:
        out["events"] = [e for _, e in sorted(stamped,
                                              key=lambda p: p[0])]
    for section in shape.unions:
        union = {}
        for snap, label_set in zip(shards, labels):
            for identity, value in snap[section].items():
                # Metric identities take labels as sorted labels.
                union[label_identity(identity, **label_set)] = value
        out[section] = dict(sorted(union.items()))
    return out


class TestOneMergeProperty:
    @settings(max_examples=150, deadline=None)
    @given(shard_sets())
    def test_merge_contract(self, drawn):
        shards, labels, sources, order = drawn
        merged = merge(shards, labels=labels, sources=sources)

        # The output is the model's, key for key, in canonical order.
        expected = model_merge(shards, labels)
        assert merged == expected
        for section in SHAPES[merged["schema"]].unions:
            assert list(merged[section]) == sorted(merged[section])

        # Independent of arrival order: serial (index order) and
        # parallel (any order) merge to the same bytes.
        arrived = merge([shards[i] for i in order],
                        labels=[labels[i] for i in order],
                        sources=[sources[i] for i in order])
        assert canonical(arrived) == canonical(merged)

        # Inputs are never mutated (shards are merged more than once).
        assert canonical(model_merge(shards, labels)) == \
            canonical(expected)

    @settings(max_examples=100, deadline=None)
    @given(shard_sets(), st.data())
    def test_every_collision_raises_naming_both_sources(self, drawn,
                                                        data):
        shards, labels, sources, _ = drawn
        victim = data.draw(st.integers(0, len(shards) - 1))
        twin = "shard 99 @ hostZ:9000"

        def raises_naming(snaps, label_sets, names, match):
            with pytest.raises(ValueError, match=match) as excinfo:
                merge(snaps, labels=label_sets, sources=names)
            assert sources[victim] in str(excinfo.value)
            assert twin in str(excinfo.value)

        # A duplicate label set, even over disjoint content.
        raises_naming(shards + [shards[victim]],
                      labels + [labels[victim]], sources + [twin],
                      "duplicate shard labels")
        # A schema mismatch: the other known schema, or an unknown one.
        other = data.draw(st.sampled_from(
            [s for s in SHAPES if s != shards[0]["schema"]]
            + ["gq.telemetry/1"]))
        raises_naming(
            [shards[victim], dict(shards[victim], schema=other)],
            [{"shard": "a"}, {"shard": "b"}],
            [sources[victim], twin], "schema mismatch")
        # An identity collision: the same content twice, unlabelled.
        snap = shards[victim]
        sections = SHAPES[snap["schema"]].unions + ("events",)
        if any(snap.get(section) for section in sections):
            raises_naming([snap, snap], None, [sources[victim], twin],
                          "identity collision")

    @settings(max_examples=50, deadline=None)
    @given(shard_sets(), st.randoms(use_true_random=False))
    def test_campaign_merge_is_arrival_order_independent(self, drawn,
                                                         rng):
        """``parallel.merge.merge_results`` calls the one merge for
        both payload keys: shuffled shard results, same bytes."""
        from repro.parallel.merge import merge_results
        from repro.parallel.pool import ShardResult

        shards, _, _, _ = drawn
        key = "journal" if shards[0]["schema"] == JOURNAL_SCHEMA \
            else "telemetry"

        class Spec:
            name = "property"

            @staticmethod
            def spec_digest():
                return "0" * 64

        results = [ShardResult(index, f"s{index}", True, {key: snap},
                               None, 0.0, worker=index % 2,
                               host=f"host{index % 2}")
                   for index, snap in enumerate(shards)]
        serial = merge_results(Spec, results, 1, 0.0)
        shuffled = list(results)
        rng.shuffle(shuffled)
        parallel = merge_results(Spec, shuffled, 2, 0.0)
        assert canonical(parallel.merged) == canonical(serial.merged)
        assert serial.merged[key] == merge(
            shards, labels=[{"shard": str(i)}
                            for i in range(len(shards))])
        if key == "journal":
            assert serial.merged["journal_digest"] == \
                journal_digest(serial.merged["journal"])


class TestSerialParallelParity:
    """Journal digest parity: the same campaign merged from a serial
    run and from a 2-worker parallel run must be byte-identical."""

    @pytest.mark.slow
    def test_campaign_journal_digest_parity(self):
        from repro.parallel import Campaign, run_campaign

        def summary(workers):
            campaign = Campaign.seed_sweep(
                "journal-parity",
                "repro.parallel.tasks:streaming_farm_shard",
                params={"subfarms": 1, "inmates": 1, "rounds": 4,
                        "duration": 40.0, "journal": True},
                seeds=[1, 2])
            return run_campaign(campaign, workers=workers).to_dict()

        serial = summary(workers=1)
        parallel = summary(workers=2)
        assert serial["merged"]["journal_digest"] == \
            parallel["merged"]["journal_digest"]
        assert json.dumps(serial["merged"]["journal"], sort_keys=True) \
            == json.dumps(parallel["merged"]["journal"], sort_keys=True)
        assert serial["merged"]["journal"]["events"], \
            "parity over an empty journal proves nothing"
