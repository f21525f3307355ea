"""The shim protocol coupling gateway and containment server (Figure 4).

The gateway maps arbitrary inmate flows onto the containment server's
single address and port by injecting a *containment request shim* into
each redirected flow; the containment server answers with a
*containment response shim* carrying the verdict, which the gateway
strips before relaying further bytes.  For TCP the shims ride in the
sequence space (requiring seq/ack bumping); for UDP they pad the
datagrams.

Wire layout (network byte order), verbatim from the paper:

Request shim — 24 bytes::

    0       2       4       6       8
    +-------+-------+---+---+
    | magic         |len|typ|ver|      preamble (8)
    +-------+-------+---+---+
    | orig IP       | resp IP       |  four-tuple (12)
    | orig port | resp port |
    +-------+-------+
    | VLAN ID   | nonce port|          (4)
    +-----------+-----------+

Response shim — at least 56 bytes::

    preamble (8) | four-tuple (12) | verdict opcode (4)
    | policy name tag (32, NUL padded) | annotation (variable)

The 2-byte preamble length field covers the whole message, so the
gateway can delimit a response shim (with its variable annotation)
inside a byte stream.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.core.verdicts import ContainmentDecision, Verdict
from repro.net.addresses import IPv4Address
from repro.net.errors import ParseError
from repro.net.flow import FiveTuple

SHIM_MAGIC = 0x47512121  # "GQ!!"
SHIM_VERSION = 1

TYPE_REQUEST = 1
TYPE_RESPONSE = 2

REQUEST_SHIM_LEN = 24
RESPONSE_SHIM_MIN_LEN = 56

POLICY_TAG_LEN = 32

_PREAMBLE = struct.Struct("!IHBB")
#: The request shim whole, and a response shim up to its verdict
#: opcode: the preamble, then the four-tuple with its addresses as ints.
_REQUEST = struct.Struct("!IHBBIIHHHH")
_RESPONSE_HEAD = struct.Struct("!IHBBIIHH")
_FOUR_TUPLE = struct.Struct("!IIHH")
_OPCODE = struct.Struct("!I")

#: A response shim's tail — verdict opcode, policy tag, annotation — is
#: what a policy says, not which flow it says it of, and a policy says
#: few things: each tail is encoded and decoded once, then interned by
#: its fields and by its wire bytes.  Both caches map a key to what a
#: pure function of it returns, immutable, so a process shares them
#: safely; one that reaches this size starts over.
TAIL_CACHE_MAX = 256
_encoded_tails: Dict[tuple, bytes] = {}
_decoded_tails: Dict[bytes, tuple] = {}


class ShimError(ParseError):
    """Raised on malformed shim messages.

    A :class:`~repro.net.errors.ParseError` with ``protocol="shim"`` —
    the shim parser participates in the uniform parse-error taxonomy,
    so the gateway's malice barrier and all pre-existing
    ``except ShimError`` sites see the same exception.
    """

    def __init__(self, reason: str, offset: int = 0) -> None:
        super().__init__("shim", reason, offset)

    def __reduce__(self):
        return (self.__class__, (self.reason, self.offset))


def _unpack_preamble(data: bytes) -> tuple:
    if len(data) < _PREAMBLE.size:
        raise ShimError(f"truncated shim preamble ({len(data)} of "
                        f"{_PREAMBLE.size} bytes)", offset=len(data))
    magic, length, msg_type, version = _PREAMBLE.unpack(data[:_PREAMBLE.size])
    if magic != SHIM_MAGIC:
        raise ShimError(f"bad shim magic {magic:#x}", offset=0)
    if version != SHIM_VERSION:
        raise ShimError(f"unsupported shim version {version}", offset=7)
    return length, msg_type


def peek_length(data: bytes) -> Optional[int]:
    """Total length of the shim starting at ``data``, or None if the
    preamble is not yet complete."""
    if len(data) < _PREAMBLE.size:
        return None
    length, _ = _unpack_preamble(data)
    return length


class RequestShim:
    """Gateway -> containment server: flow meta-information."""

    __slots__ = ("flow", "vlan_id", "nonce_port")

    def __init__(self, flow: FiveTuple, vlan_id: int, nonce_port: int) -> None:
        self.flow = flow
        self.vlan_id = vlan_id
        self.nonce_port = nonce_port

    def to_bytes(self) -> bytes:
        flow = self.flow
        return _REQUEST.pack(
            SHIM_MAGIC, REQUEST_SHIM_LEN, TYPE_REQUEST, SHIM_VERSION,
            flow.orig_ip.value, flow.resp_ip.value, flow.orig_port,
            flow.resp_port, self.vlan_id, self.nonce_port)

    @classmethod
    def from_bytes(cls, data: bytes, proto: int = 6) -> "RequestShim":
        length, msg_type = _unpack_preamble(data)
        if msg_type != TYPE_REQUEST:
            raise ShimError(f"expected request shim, got type {msg_type}",
                            offset=6)
        if length != REQUEST_SHIM_LEN:
            raise ShimError(f"bad request shim length field ({length}, "
                            f"expected {REQUEST_SHIM_LEN})", offset=4)
        if len(data) < REQUEST_SHIM_LEN:
            raise ShimError(f"request shim truncated mid-field "
                            f"({len(data)} of {REQUEST_SHIM_LEN} bytes)",
                            offset=len(data))
        (_magic, _length, _type, _version, orig_ip, resp_ip, orig_port,
         resp_port, vlan_id, nonce_port) = _REQUEST.unpack_from(data)
        flow = FiveTuple(IPv4Address(orig_ip), orig_port,
                         IPv4Address(resp_ip), resp_port, proto)
        return cls(flow, vlan_id, nonce_port)

    def __repr__(self) -> str:
        return f"<RequestShim {self.flow} vlan={self.vlan_id} nonce={self.nonce_port}>"


class ResponseShim:
    """Containment server -> gateway: the verdict.

    The four-tuple is the *resulting* endpoint pair: identical to the
    request's for FORWARD/LIMIT/DROP/REWRITE, and the new destination
    for REDIRECT/REFLECT.
    """

    __slots__ = ("flow", "verdict", "policy", "annotation", "rate")

    def __init__(
        self,
        flow: FiveTuple,
        verdict: Verdict,
        policy: str = "",
        annotation: str = "",
        rate: Optional[float] = None,
    ) -> None:
        # The verdict is validated once per distinct tail, where the
        # tail is encoded (to_bytes) or decoded (from_bytes) and cached.
        self.flow = flow
        self.verdict = verdict
        self.policy = policy
        self.annotation = annotation
        self.rate = rate

    @classmethod
    def from_decision(
        cls, original: FiveTuple, decision: ContainmentDecision
    ) -> "ResponseShim":
        resulting = original
        if decision.target_ip is not None:
            resulting = FiveTuple(
                original.orig_ip, original.orig_port,
                decision.target_ip,
                decision.target_port
                if decision.target_port is not None
                else original.resp_port,
                original.proto,
            )
        return cls(resulting, decision.verdict, decision.policy,
                   decision.annotation, decision.rate)

    def to_decision(self, original: FiveTuple) -> ContainmentDecision:
        """Reconstruct the decision the gateway must enforce."""
        target_ip = target_port = None
        if self.verdict.needs_target:
            target_ip = self.flow.resp_ip
            target_port = self.flow.resp_port
        return ContainmentDecision(
            self.verdict, target_ip, target_port, self.rate,
            self.policy, self.annotation,
        )

    def to_bytes(self) -> bytes:
        fields = (self.verdict, self.policy, self.annotation, self.rate)
        tail = _encoded_tails.get(fields)
        if tail is None:
            self.verdict.validate()
            tail = _intern(_encoded_tails, fields, _encode_tail(*fields))
        flow = self.flow
        return _RESPONSE_HEAD.pack(
            SHIM_MAGIC, 20 + len(tail), TYPE_RESPONSE, SHIM_VERSION,
            flow.orig_ip.value, flow.resp_ip.value, flow.orig_port,
            flow.resp_port) + tail

    @classmethod
    def from_bytes(cls, data: bytes, proto: int = 6) -> "ResponseShim":
        length, msg_type = _unpack_preamble(data)
        if msg_type != TYPE_RESPONSE:
            raise ShimError(f"expected response shim, got type {msg_type}",
                            offset=6)
        if length < RESPONSE_SHIM_MIN_LEN:
            raise ShimError(f"response shim length field below minimum "
                            f"({length} < {RESPONSE_SHIM_MIN_LEN})", offset=4)
        if len(data) < length:
            raise ShimError(f"response shim truncated mid-field "
                            f"({len(data)} of {length} bytes)",
                            offset=len(data))
        orig_ip, resp_ip, orig_port, resp_port = _FOUR_TUPLE.unpack_from(
            data, 8)
        tail = bytes(data[20:length])
        decoded = _decoded_tails.get(tail)
        if decoded is None:
            decoded = _intern(_decoded_tails, tail, _decode_tail(tail))
        verdict, policy, annotation, rate = decoded
        flow = FiveTuple(IPv4Address(orig_ip), orig_port,
                         IPv4Address(resp_ip), resp_port, proto)
        return cls(flow, verdict, policy, annotation, rate)

    def __repr__(self) -> str:
        return f"<ResponseShim {self.verdict!r} policy={self.policy!r} {self.flow}>"


def _intern(cache: dict, key, value):
    if len(cache) >= TAIL_CACHE_MAX:
        cache.clear()
    cache[key] = value
    return value


def _encode_tail(verdict: Verdict, policy: str, annotation: str,
                 rate: Optional[float]) -> bytes:
    """A response shim's bytes from its verdict opcode on."""
    annotation_raw = annotation.encode("utf-8")
    if rate is not None:
        # LIMIT budgets travel in the annotation, key=value style.
        rate_blob = f"rate={rate:g}".encode("ascii")
        annotation_raw = rate_blob + (b";" + annotation_raw
                                      if annotation_raw else b"")
    policy_tag = policy.encode("utf-8")[:POLICY_TAG_LEN]
    # Never truncate mid-codepoint: drop trailing continuation
    # bytes so the tag stays valid UTF-8.
    while policy_tag and (policy_tag[-1] & 0xC0) == 0x80:
        policy_tag = policy_tag[:-1]
    if policy_tag and policy_tag[-1] >= 0xC0:
        policy_tag = policy_tag[:-1]  # orphaned lead byte
    policy_tag += b"\x00" * (POLICY_TAG_LEN - len(policy_tag))
    return _OPCODE.pack(int(verdict)) + policy_tag + annotation_raw


def _decode_tail(tail: bytes) -> tuple:
    """``(verdict, policy, annotation, rate)`` from a response shim's
    bytes from its verdict opcode on (at least 36 of them)."""
    (opcode,) = _OPCODE.unpack_from(tail)
    policy = tail[4:4 + POLICY_TAG_LEN].rstrip(b"\x00").decode(
        "utf-8", "replace")
    annotation = tail[4 + POLICY_TAG_LEN:].decode("utf-8", "replace")
    rate: Optional[float] = None
    if annotation.startswith("rate="):
        rate_text, _, rest = annotation.partition(";")
        try:
            rate = float(rate_text[5:])
        except ValueError:
            raise ShimError(
                f"malformed rate annotation {rate_text!r}",
                offset=24 + POLICY_TAG_LEN) from None
        annotation = rest
    try:
        verdict = Verdict(opcode)
        verdict.validate()
    except ValueError:
        raise ShimError(f"invalid verdict opcode {opcode:#x}",
                        offset=20) from None
    return verdict, policy, annotation, rate
