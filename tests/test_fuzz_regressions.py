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

import os
import random

import pytest

from repro.farm import Farm, FarmConfig
from repro.fuzz import (
    CorpusStore,
    DSL_TARGET,
    MutationEngine,
    TARGETS,
    WORKER_FRAME_TARGET,
    fuzz_dsl,
    fuzz_parsers,
    fuzz_worker_frames,
    minimize,
    replay_corpus,
)
from repro.net.errors import ParseError

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fuzz_corpus")


class TestCorpusReplay:
    def test_corpus_is_present_and_covers_targets(self):
        entries = CorpusStore(CORPUS_DIR).entries()
        assert len(entries) >= 40
        covered = {protocol for protocol, _, _ in entries}
        assert covered == set(TARGETS) | {DSL_TARGET.name,
                                          WORKER_FRAME_TARGET.name}

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
        first = fuzz_dsl(seed=42, iterations=400)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == fuzz_dsl(seed=42, iterations=400)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        # One more name there would move FUZZ_quick.json's parser digest.
        assert DSL_TARGET.name not in TARGETS

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
        first = fuzz_worker_frames(seed=42, iterations=300)
        assert first["escapes"] == []
        assert first["ok"] and first["parse_errors"]  # both sides reached
        assert first["digest"] == \
            fuzz_worker_frames(seed=42, iterations=300)["digest"]

    def test_it_stays_out_of_the_tracked_round_robin(self):
        assert WORKER_FRAME_TARGET.name not in TARGETS

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
        assert WORKER_FRAME_TARGET.parse(data) == messages
        with mock.patch.object(FrameDecoder, "feed", forgetful):
            with pytest.raises(AssertionError, match="chunking"):
                WORKER_FRAME_TARGET.parse(data)


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
