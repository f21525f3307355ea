"""Corpus-replay regression tests for the fuzz plane.

``tests/fuzz_corpus/`` pins hostile inputs (named
``<protocol>__<sha8>.bin``) that each parser must answer with a clean
ParseError — or, for the tolerant line engines, absorb silently.  The
farm-level test additionally feeds every pinned blob straight into a
live gateway trunk and asserts the event loop survives.  Any crash the
fuzzer ever finds gets minimized and pinned here, so it can never
quietly return.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.farm import Farm, FarmConfig
from repro.fuzz import (
    CorpusStore,
    MutationEngine,
    SOLO_TARGETS,
    TARGETS,
    fuzz_parsers,
    fuzz_target,
    minimize,
    replay_corpus,
)
from repro.fuzz.runner import pin_violations
from repro.net.errors import ParseError

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fuzz_corpus")


class TestCorpusReplay:
    def test_corpus_is_present_and_covers_targets(self):
        entries = CorpusStore(CORPUS_DIR).entries()
        assert len(entries) >= 40
        covered = {protocol for protocol, _, _ in entries}
        assert covered == set(TARGETS) | {
            target.name for target in SOLO_TARGETS.values()}

    def test_no_pinned_input_escapes_the_taxonomy(self):
        summary = replay_corpus(CORPUS_DIR)
        assert summary["escapes"] == []
        assert summary["skipped"] == []
        assert summary["replayed"] >= 40

    def test_farm_survives_every_pinned_blob(self):
        """Feed each corpus blob into a live trunk as a wire frame;
        the run completing is the assertion."""
        farm = Farm(FarmConfig(seed=5))
        sub = farm.create_subfarm("replay")
        when = 1.0
        for index, (_, _, data) in enumerate(
                CorpusStore(CORPUS_DIR).entries()):
            vlan = (index % 30) + 1
            farm.sim.schedule(
                when, lambda v=vlan, d=data: sub.router.ingest_wire(v, d),
                label="corpus-replay")
            when += 0.01
        farm.run(until=when + 5.0)
        assert farm.sim.now >= when


class TestFuzzDeterminism:
    def test_same_seed_same_digest(self):
        first = fuzz_parsers(seed=42, iterations=160)
        second = fuzz_parsers(seed=42, iterations=160)
        assert first["digest"] == second["digest"]
        assert first["escapes"] == [] and second["escapes"] == []

    def test_different_seed_different_digest(self):
        assert fuzz_parsers(seed=42, iterations=160)["digest"] != \
            fuzz_parsers(seed=43, iterations=160)["digest"]

    def test_mutation_engine_is_seed_deterministic(self):
        data = bytes(range(64))
        a = MutationEngine(7)
        b = MutationEngine(7)
        assert [a.mutate(data) for _ in range(20)] == \
            [b.mutate(data) for _ in range(20)]


class TestPolicyProgramTarget:
    """The DSL parser's own loop: a program compiles or raises
    ``DslError`` (``ParseError`` through the target), nothing else."""

    def test_loop_is_deterministic_and_escape_free(self):
        first = fuzz_target(SOLO_TARGETS["dsl"], seed=42, iterations=400)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == fuzz_target(
            SOLO_TARGETS["dsl"], seed=42, iterations=400)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        # One more name there would move FUZZ_quick.json's parser digest.
        assert SOLO_TARGETS["dsl"].name not in TARGETS

    def test_constructor_refusals_come_back_as_dsl_errors(self):
        """The escapes the loop found at the parent of this target
        (pinned as ``dsl__*.bin``): a value the grammar let through to
        float(), shlex, IPv4Address, re.compile or latin-1."""
        from repro.core.dsl import DslError, parse_program

        for program in ("default -> limit fast",
                        'default -> reflect "unclosed',
                        "default -> redirect 10.3.0:x",
                        'any content =~ "(a|b" -> drop\ndefault -> drop',
                        'any content ~ "\u20ac" -> drop\ndefault -> drop'):
            with pytest.raises(DslError) as exc:
                parse_program(program)
            assert exc.value.reason == "bad-value"
            assert exc.value.line_number == 1


class TestWorkerFrameTarget:
    """The campaign transport's frame decoder: a byte stream, whole or
    in pieces, decodes to the same messages or raises
    ``TransportError`` (``ParseError`` through the target)."""

    def test_loop_is_deterministic_and_escape_free(self):
        target = SOLO_TARGETS["worker_frame"]
        first = fuzz_target(target, seed=42, iterations=300)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == \
            fuzz_target(target, seed=42, iterations=300)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        assert SOLO_TARGETS["worker_frame"].name not in TARGETS

    def test_a_chunking_that_changes_the_decoding_is_an_escape(self):
        """The target's second contract: feeding in pieces must not
        change what decodes.  A decoder that drops a frame split across
        two feeds breaks it."""
        from unittest import mock

        from repro.parallel.transport import FrameDecoder, encode_frame

        def forgetful(self, data):
            self._buffer = bytearray(data)      # loses the held prefix
            return original(self, b"")

        original = FrameDecoder.feed
        messages = [["start", index] for index in range(8)]
        data = b"".join(map(encode_frame, messages))
        parse = SOLO_TARGETS["worker_frame"].parse
        assert parse(data) == messages
        with mock.patch.object(FrameDecoder, "feed", forgetful):
            with pytest.raises(AssertionError, match="chunking"):
                parse(data)


class TestFaultPlanTarget:
    """Fault plans, the isolation verifier's other input: JSON builds a
    plan or raises ``ValueError`` (``ParseError`` through the target)."""

    def test_loop_is_deterministic_and_escape_free(self):
        target = SOLO_TARGETS["fault_plan"]
        first = fuzz_target(target, seed=42, iterations=300)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == \
            fuzz_target(target, seed=42, iterations=300)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        assert SOLO_TARGETS["fault_plan"].name not in TARGETS

    def test_wrong_shapes_come_back_as_value_errors(self):
        """The escapes the loop found at the parent of this target
        (pinned as ``fault-plan__*.bin``): a wrongly typed field or
        kind, or a plan, spec list or spec that is not what it says,
        reached a comparison, a hash or ``dict()`` as a TypeError."""
        from repro.faults.plan import FaultPlan

        for document in (
                [], {"specs": -1}, {"specs": [1]},
                {"specs": [{"kind": "shim_drop", "probability": "x"}]},
                {"specs": [{"kind": ["cs_crash"], "at": 1.0}]},
                {"specs": [{"kind": "cs_hang", "delay": "x"}]},
                {"specs": [{"kind": "cs_hang", "end": {}}]},
                {"specs": [{"kind": "worker_crash", "shard": "1"}]}):
            with pytest.raises(ValueError):
                FaultPlan.from_dict(document)


class TestCertificateTarget:
    """Isolation certificates, from a shard payload or from disk: JSON
    digests, merges and indexes its grants, or raises ``ValueError``
    (``ParseError`` through the target)."""

    def test_loop_is_deterministic_and_escape_free(self):
        target = SOLO_TARGETS["certificate"]
        first = fuzz_target(target, seed=42, iterations=300)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == \
            fuzz_target(target, seed=42, iterations=300)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        assert SOLO_TARGETS["certificate"].name not in TARGETS

    def test_wrong_shapes_come_back_as_value_errors(self):
        """The escapes at the parent of this target (pinned as
        ``certificate__*.bin``): a document or grant that is not an
        object, a missing grant field, and wrongly typed counts, grant
        lists, verdicts or VLAN specs reached ``.get``, a subscript, a
        sum or ``int()`` as AttributeError, KeyError or TypeError."""
        from repro.verify import merge_certificates, verify_digest
        from repro.verify.runtime import GrantIndex

        grant = {"subfarm": "s", "vlan": "*", "proto": "tcp",
                 "verdict": "FORWARD", "ports": [80, 80]}
        whole = {"label": "x", "digest": "0", "states_explored": 1,
                 "leak_count": 0, "result": "CONTAINED", "grants": [grant]}
        for document in (
                [], ["x"], "", {"states_explored": "x"},
                {"grants": [{}]}, dict(whole, leak_count={}),
                dict(whole, grants=None), dict(whole, grants=[None]),
                dict(whole, grants=[dict(grant, verdict={})]),
                dict(whole, grants=[dict(grant, vlan=3)]),
                dict(whole, grants=[dict(grant, ports=[80])])):
            for load in (verify_digest, GrantIndex,
                         lambda d: merge_certificates([d])):
                with pytest.raises(ValueError):
                    load(document)


class TestShardSpecTarget:
    """Shard specs as a slot reads them off the campaign wire: JSON
    passes the shard-spec table, carries a worker fault if any, and
    round-trips, or raises ``ValueError`` (``ParseError`` through the
    target)."""

    def test_loop_is_deterministic_and_escape_free(self):
        target = SOLO_TARGETS["shard_spec"]
        first = fuzz_target(target, seed=42, iterations=300)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == \
            fuzz_target(target, seed=42, iterations=300)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        assert SOLO_TARGETS["shard_spec"].name not in TARGETS

    def test_it_never_imports_the_task(self):
        spec = b'{"index": 0, "task": "no_such_module:task"}'
        assert SOLO_TARGETS["shard_spec"].parse(spec)["task"] \
            == "no_such_module:task"

    def test_wrong_shapes_come_back_as_value_errors(self):
        """The escapes this target found before the shard-spec table
        (pinned as ``shard-spec__*.bin``): a spec that was not an
        object or had no index or task, an index or params of the wrong
        shape, and a fault that was not an object reached a subscript,
        ``int()``, ``dict()`` or ``.get`` as KeyError, TypeError or
        AttributeError.  A fault a worker cannot enact is refused too."""
        from repro.parallel.worker import read_spec

        good = {"index": 0, "task": "repro.parallel.tasks:noop_shard"}
        for document in (
                [], 1, None, {}, {"index": 0}, {"task": good["task"]},
                dict(good, index={}), dict(good, params=-1),
                dict(good, fault=[1]), dict(good, fault=-1),
                dict(good, fault={"kind": "cs_crash", "at": 1.0}),
                dict(good, fault={"kind": "worker_crash"})):
            with pytest.raises(ValueError):
                read_spec(document)


class TestQuickPins:
    """``fuzz-quick`` fails closed: every digest the smoke produces
    must have a pin, and every pin a digest."""

    SUMMARY = {"parsers": {"digest": "aa", "ok": 3},
               "farm": {"isolate": {"digest": "bb", "journal_digest": "cc"}}}

    def pins(self, tmp_path, summary):
        path = tmp_path / "FUZZ_quick.json"
        path.write_text(json.dumps(summary))
        return str(path)

    def test_matching_pins_pass(self, tmp_path):
        path = self.pins(tmp_path, self.SUMMARY)
        assert pin_violations(self.SUMMARY, path) == []

    def test_a_drifted_digest_fails(self, tmp_path):
        path = self.pins(tmp_path, self.SUMMARY)
        moved = {**self.SUMMARY, "parsers": {"digest": "ab"}}
        assert pin_violations(moved, path) == [
            "parsers.digest: aa in FUZZ_quick.json, ab now"]

    def test_a_new_target_without_a_pin_fails(self, tmp_path):
        path = self.pins(tmp_path, self.SUMMARY)
        grown = {**self.SUMMARY, "shard_spec": {"digest": "dd"}}
        assert pin_violations(grown, path) == [
            "shard_spec.digest: no pin in FUZZ_quick.json, dd now"]

    def test_a_pin_whose_target_is_gone_fails(self, tmp_path):
        path = self.pins(tmp_path, self.SUMMARY)
        shrunk = {"parsers": self.SUMMARY["parsers"]}
        assert pin_violations(shrunk, path) == [
            "farm.isolate.digest: bb in FUZZ_quick.json, not produced now",
            "farm.isolate.journal_digest: cc in FUZZ_quick.json, "
            "not produced now"]

    def test_a_missing_pin_file_fails(self, tmp_path):
        path = str(tmp_path / "FUZZ_quick.json")
        assert pin_violations(self.SUMMARY, path) == [
            "FUZZ_quick.json is missing"]


class TestMinimizer:
    def test_shrinks_while_predicate_holds(self):
        # Failure depends only on a marker byte: the minimizer should
        # strip nearly everything else.
        data = os.urandom(0) + b"A" * 200 + b"\xEE" + b"B" * 200
        shrunk = minimize(data, lambda d: b"\xEE" in d)
        assert b"\xEE" in shrunk
        assert len(shrunk) < 20

    def test_returns_input_when_predicate_never_held(self):
        data = b"well-formed"
        assert minimize(data, lambda d: False) == data


class TestCorpusStore:
    def test_add_names_by_protocol_and_digest(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        path = store.add("dns", b"\x01\x02")
        name = os.path.basename(path)
        assert name.startswith("dns__") and name.endswith(".bin")
        # Idempotent: same bytes, same file.
        assert store.add("dns", b"\x01\x02") == path
        assert len(store.entries()) == 1

    def test_escape_gets_pinned(self, tmp_path):
        """An artificial target whose parser throws TypeError must
        yield a minimized corpus entry via the fuzz loop machinery."""
        store = CorpusStore(str(tmp_path))
        rng = random.Random(1)
        data = TARGETS["udp"].generate(rng)

        def bad_parse(blob):
            raise TypeError("synthetic crash")

        shrunk = minimize(data, lambda d: True)
        store.add("udp", shrunk)
        (protocol, _, pinned), = store.entries()
        assert protocol == "udp"
        with pytest.raises(TypeError):
            bad_parse(pinned)


class TestParserContract:
    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_500_iterations_per_target(self, name):
        """Per-target contract check: generate+mutate 500 inputs; the
        parser may succeed or raise ParseError, nothing else."""
        target = TARGETS[name]
        rng = random.Random(sum(name.encode()))  # stable across processes
        engine = MutationEngine(0xC0FFEE)
        for index in range(500):
            data = target.generate(rng)
            if index % 2:
                data = engine.mutate(data)
            try:
                target.parse(data)
            except ParseError:
                pass
