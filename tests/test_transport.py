"""repro.parallel.transport: the frame codec, endpoint parsing, and
the SocketTransport round trip against a real localhost worker agent.

The codec tests are pure; the agent tests start
``python -m repro.parallel.worker`` subprocesses and are marked
``integration`` like the other real-process pool tests.
"""

from __future__ import annotations

import pytest

from repro.parallel import (
    Campaign,
    ShardSpec,
    SocketTransport,
    TransportError,
    local_agents,
    run_campaign,
)
from repro.parallel.transport import (
    FrameDecoder,
    encode_frame,
    parse_endpoint,
)

NOOP = "repro.parallel.tasks:noop_shard"
CRASH = "repro.parallel.tasks:crashing_shard"
FARM = "repro.parallel.tasks:streaming_farm_shard"

TINY_FARM = {"subfarms": 1, "inmates": 1, "rounds": 5, "duration": 30.0}


class TestFrameCodec:
    def test_round_trip_single_frame(self):
        decoder = FrameDecoder()
        message = ["done", 3, {"ok": True, "payload": {"x": 1}}]
        assert decoder.feed(encode_frame(message)) == [message]

    def test_reassembles_split_frames(self):
        decoder = FrameDecoder()
        blob = encode_frame(["start", 0]) + encode_frame(["idle", 1])
        out = []
        for offset in range(0, len(blob), 3):  # drip-feed 3 bytes
            out.extend(decoder.feed(blob[offset:offset + 3]))
        assert out == [["start", 0], ["idle", 1]]

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
