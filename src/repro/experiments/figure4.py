"""Figure 4: the shim protocol wire format, byte for byte."""

from __future__ import annotations

from typing import Tuple

from repro.core.shim import (
    REQUEST_SHIM_LEN,
    RESPONSE_SHIM_MIN_LEN,
    RequestShim,
    ResponseShim,
)
from repro.core.verdicts import Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP

FLOW = FiveTuple(IPv4Address("10.0.0.23"), 1234,
                 IPv4Address("192.150.187.12"), 80, PROTO_TCP)


def run_figure4() -> Tuple[bytes, bytes]:
    """The figure's two messages, encoded."""
    request = RequestShim(FLOW, vlan_id=12, nonce_port=42)
    response = ResponseShim(FLOW, Verdict.REWRITE, policy="Rustock",
                            annotation="C&C filtering")
    return request.to_bytes(), response.to_bytes()


def hexdump(data: bytes) -> str:
    lines = []
    for offset in range(0, len(data), 8):
        chunk = data[offset:offset + 8]
        hexes = " ".join(f"{b:02x}" for b in chunk)
        lines.append(f"  {offset:4d}: {hexes}")
    return "\n".join(lines)


def render(shims: Tuple[bytes, bytes]) -> str:
    raw_request, raw_response = shims
    return "\n".join([
        "Figure 4 — shim protocol message structure",
        "",
        f"(a) Request shim — {len(raw_request)} bytes "
        f"(spec: exactly {REQUEST_SHIM_LEN})",
        "    magic | len | type | ver | orig IP | resp IP | ports | "
        "VLAN | nonce",
        hexdump(raw_request),
        "",
        f"(b) Response shim — {len(raw_response)} bytes "
        f"(spec: at least {RESPONSE_SHIM_MIN_LEN})",
        "    preamble | four-tuple | verdict opcode | policy tag (32) | "
        "annotation",
        hexdump(raw_response),
    ])
