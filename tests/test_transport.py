"""repro.parallel.transport: the frame codec, endpoint parsing, the
SocketTransport round trip against a real localhost worker agent, and
how long a slot lives.

The codec tests are pure; the agent and slot tests start
``python -m repro.parallel.worker`` subprocesses or slot processes and
are marked ``integration`` like the other real-process pool tests.
"""

from __future__ import annotations

import os
import select
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.parallel import (
    Campaign,
    LocalTransport,
    ShardSpec,
    SocketTransport,
    TransportError,
    local_agents,
    run_campaign,
    start_local_agent,
)
from repro.parallel.transport import (
    FrameDecoder,
    encode_frame,
    parse_endpoint,
)

NOOP = "repro.parallel.tasks:noop_shard"
CRASH = "repro.parallel.tasks:crashing_shard"
SLEEP = "repro.parallel.tasks:sleepy_shard"
FARM = "repro.parallel.tasks:streaming_farm_shard"

TINY_FARM = {"subfarms": 1, "inmates": 1, "rounds": 5, "duration": 30.0}


class TestFrameCodec:
    def test_round_trip_single_frame(self):
        decoder = FrameDecoder()
        message = ["done", 3, {"ok": True, "payload": {"x": 1}}]
        assert decoder.feed(encode_frame(message)) == [message]

    def test_reassembles_split_frames(self):
        decoder = FrameDecoder()
        blob = encode_frame(["start", 0]) + encode_frame(["start", 1])
        out = []
        for offset in range(0, len(blob), 3):  # drip-feed 3 bytes
            out.extend(decoder.feed(blob[offset:offset + 3]))
        assert out == [["start", 0], ["start", 1]]

    def test_oversize_announcement_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(struct.pack(">I", 1 << 31))

    def test_garbage_frame_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(struct.pack(">I", 3) + b"\xff\xfe\xfd")

    @pytest.mark.parametrize("body", [b"[" * 200_000,
                                      b'{"a":' * 50_000])
    def test_nesting_past_the_recursion_limit_rejected(self, body):
        # A hostile peer's bracket bomb used to escape as RecursionError.
        import struct

        decoder = FrameDecoder()
        with pytest.raises(TransportError, match="undecodable frame"):
            decoder.feed(struct.pack(">I", len(body)) + body)


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.2:9000") == ("10.0.0.2", 9000)

    @pytest.mark.parametrize("bad", ["nohost", ":9000", "h:", "h:nan",
                                     "h:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)

    def test_transport_accepts_comma_string(self):
        transport = SocketTransport("a:1, b:2")
        assert [e for e, _ in transport.endpoints] == ["a:1", "b:2"]

    def test_transport_needs_an_endpoint(self):
        with pytest.raises(ValueError):
            SocketTransport([])


@pytest.mark.integration
class TestSocketDispatch:
    def test_unreachable_agent_is_a_transport_error(self):
        transport = SocketTransport("127.0.0.1:9", connect_timeout=0.5)
        with pytest.raises(TransportError, match="no worker agent"):
            transport.launch()

    def test_localhost_round_trip_matches_serial_digest(self):
        campaign = Campaign.seed_sweep("sock-parity", FARM,
                                       params=dict(TINY_FARM),
                                       count=4, base_seed=3)
        serial = run_campaign(campaign, workers=1)
        with local_agents(1) as endpoints:
            sock = run_campaign(campaign, workers=2, hosts=endpoints)
        assert sock.ok
        assert sock.digest == serial.digest
        assert sock.merged["telemetry"] == serial.merged["telemetry"]
        assert sock.merged["scheduler"]["transport"] == "socket"
        # Scheduling honesty: the agent's host record is persisted.
        (host_record,) = sock.merged["hosts"].values()
        assert host_record["workers"] == 2
        assert host_record["shards"] == 4

    def test_worker_crash_over_socket_fails_only_its_shard(self):
        campaign = Campaign("sock-crash", [
            ShardSpec(0, NOOP, {"seed": 1}),
            ShardSpec(1, CRASH, {"seed": 2}),
            ShardSpec(2, NOOP, {"seed": 3}),
            ShardSpec(3, NOOP, {"seed": 4}),
        ])
        # One worker, so shards 2-3 are still pending when shard 1
        # kills it: the pool respawns only while work is waiting, and a
        # second worker could drain them before the crash is reaped.
        with local_agents(1) as endpoints:
            result = run_campaign(campaign, workers=1, hosts=endpoints)
        assert len(result.shard_results) == 4
        assert not result.ok
        (failure,) = result.failures
        assert failure["shard"] == 1
        assert failure["kind"] == "crash"
        assert "died" in failure["message"]
        survivors = [r for r in result.shard_results if r.index != 1]
        assert all(r.ok for r in survivors)
        # The crash cost a respawn (a reconnect), not the campaign.
        assert result.merged["scheduler"]["respawns"] >= 1

    def test_socket_timeout_round_trip_clock(self):
        campaign = Campaign("sock-timeout", [
            ShardSpec(0, "repro.parallel.tasks:sleepy_shard",
                      {"seed": 1, "wall_seconds": 60.0}, timeout=1.0),
            ShardSpec(1, NOOP, {"seed": 2}),
        ])
        with local_agents(1) as endpoints:
            result = run_campaign(campaign, workers=2, hosts=endpoints)
        failure = result.failures[0]
        assert failure["shard"] == 0
        assert failure["kind"] == "timeout"
        assert result.shard_results[1].ok
        # The recorded duration is the master-side round trip, so it
        # must cover at least the timeout itself.
        assert result.shard_results[0].seconds >= 1.0


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its
    parent (an orphaned slot's new parent may never reap it)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return True


def await_frame(handle, tag: str, timeout: float = 30.0) -> tuple:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        select.select([handle.sock], [], [], 0.1)
        for message in handle.drain():
            if message[0] == tag:
                return message
    raise AssertionError(f"no {tag!r} frame within {timeout}s")


def ends_when_closed(handle, before_close=lambda: None) -> bool:
    """Start a minute-long shard on a fresh slot, close the handle
    mid-shard, and report whether the slot process is gone within five
    seconds."""
    pid = await_frame(handle, "ready")[1]["pid"]
    handle.send(["run", ShardSpec(0, SLEEP, {"seed": 1,
                                             "wall_seconds": 60.0})
                 .to_dict()])
    await_frame(handle, "start")
    before_close()
    handle.close()
    deadline = time.monotonic() + 5.0
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not running(pid)


@pytest.mark.integration
class TestSlotLifetime:
    """A slot lives exactly as long as its connection: closing the
    handle ends a hung slot wherever it runs (docs/PARALLELISM.md,
    "Multi-host dispatch")."""

    def test_local_slot(self):
        assert ends_when_closed(LocalTransport().launch())

    def test_agent_slot(self):
        with local_agents(1) as endpoints:
            assert ends_when_closed(SocketTransport(endpoints).launch())

    def test_agent_slot_after_its_agent_is_killed(self):
        agent, endpoint = start_local_agent()
        try:
            handle = SocketTransport([endpoint]).launch()

            def kill_agent():
                agent.kill()
                agent.wait(timeout=10.0)

            assert ends_when_closed(handle, before_close=kill_agent)
        finally:
            agent.kill()
            agent.wait(timeout=10.0)


@pytest.fixture(scope="class")
def agent():
    with local_agents(1) as endpoints:
        yield endpoints[0]


@pytest.mark.integration
class TestSlotReadsTheWire:
    """A slot checks every frame it is sent: a spec it cannot read
    fails its shard as kind ``payload`` and the slot runs the next one;
    a frame without a readable shard index closes the connection."""

    @pytest.mark.parametrize("spec", [
        {"index": 0, "task": 7},
        {"index": 0, "task": NOOP, "params": {"seed": 1}, "fault": 3},
        {"index": 0, "task": NOOP, "params": {"seed": 1},
         "fault": {"kind": "cs_crash", "at": 1.0}},
    ])
    def test_a_bad_spec_fails_its_shard_only(self, agent, spec):
        handle = SocketTransport([agent]).launch()
        try:
            await_frame(handle, "ready")
            handle.send(["run", spec])
            _done, index, result = await_frame(handle, "done")
            assert (index, result["ok"], result["error"]["kind"]) \
                == (0, False, "payload")
            handle.send(["run", ShardSpec(1, NOOP, {"seed": 2}).to_dict()])
            assert await_frame(handle, "done")[2]["ok"]
        finally:
            handle.close()

    @pytest.mark.parametrize("message", [
        ["run", 5], ["run", {"task": NOOP, "params": {"seed": 1}}],
        ["run", {"index": "0", "task": NOOP}], ["run"], ["stop"]])
    def test_an_unreadable_frame_closes_the_slot(self, agent, message):
        handle = SocketTransport([agent]).launch()
        try:
            await_frame(handle, "ready")
            handle.send(message)
            with pytest.raises(TransportError, match="died"):
                await_frame(handle, "done")
        finally:
            handle.close()

    def test_closing_is_not_a_crash(self, capfd):
        handle = LocalTransport().launch()
        await_frame(handle, "ready")
        handle.send(["run", 5])
        with pytest.raises(TransportError, match="died"):
            await_frame(handle, "done")
        handle.close()
        assert handle.proc.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err


@contextmanager
def fake_agent(reply):
    """A localhost stand-in for a worker agent: each connection says
    ``ready``, announces the shard of the first ``run`` it is sent,
    answers ``reply`` and waits for the master to hang up."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def slot(conn):
        conn.sendall(encode_frame(["ready", {"host": "fake"}]))
        decoder, messages = FrameDecoder(), []
        while not messages:
            data = conn.recv(1 << 16)
            if not data:
                return
            messages = decoder.feed(data)
        conn.sendall(encode_frame(["start", messages[0][1]["index"]])
                     + encode_frame(reply))
        while conn.recv(1 << 16):
            pass

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(None)
                slot(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()


@pytest.mark.parametrize("reply", [
    ["done", 99, {"ok": True, "payload": {}, "error": None, "seconds": 0}],
    ["done", 0, {}],
    ["done"],
    ["done", 0, {"ok": True, "payload": None, "error": None, "seconds": 0}],
    ["start", "0"],
])
def test_a_slot_that_breaks_the_wire_is_a_crash(reply):
    # Before the frame tables the first three raised KeyError
    # or IndexError out of run_campaign.
    campaign = Campaign("fake", [ShardSpec(0, NOOP, {"seed": 1})])
    with fake_agent(reply) as endpoint:
        result = run_campaign(campaign, workers=1, hosts=[endpoint])
    (failure,) = result.failures
    assert failure["kind"] == "crash"
    assert "broke the wire" in failure["message"]


@pytest.mark.skipif(os.name != "posix", reason="stand-in is a sh script")
def test_silent_agent_is_killed_at_the_startup_deadline(tmp_path,
                                                        monkeypatch):
    # An "interpreter" that never writes a line: readline() on its
    # stdout would block forever.
    pidfile = tmp_path / "pid"
    stand_in = tmp_path / "python"
    stand_in.write_text(f"#!/bin/sh\necho $$ > {pidfile}\nexec sleep 60\n")
    stand_in.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(stand_in))
    started = time.monotonic()
    with pytest.raises(TransportError, match="did not announce"):
        start_local_agent(startup_timeout=0.5)
    assert time.monotonic() - started < 5.0
    assert not running(int(pidfile.read_text()))
