"""Models of the gateway kernel's int-keyed tables (hypothesis).

Each per-packet table that stopped hashing address objects, and each
structure that replaced a scan or a leak, is checked against the plain
thing it replaced (docs/PERFORMANCE.md, "The gateway kernel"):

* the int-keyed :class:`~repro.net.link.Switch` against a reference
  switch keyed on ``(vlan, MacAddress)``;
* the gateway's ``global address -> router`` demux map against "the
  first router whose ``owns_global`` is true";
* the expiring :class:`~repro.gateway.safety.SafetyFilter` against the
  filter it replaced, whose pair table only ever grew.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.farm import Farm, FarmConfig
from repro.gateway.nat import AddressPoolExhausted
from repro.gateway.safety import SafetyFilter
from repro.inmates.images import idle_image
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.link import Link, Port, PortMode, Switch
from repro.net.packet import EthernetFrame, IPv4Packet, UDPDatagram
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# Switch
# ----------------------------------------------------------------------
#: (mode, access VLAN, trunk VLAN set) of the switch's ports.
PORTS = [
    (PortMode.ACCESS, 7, None),
    (PortMode.ACCESS, 7, None),
    (PortMode.ACCESS, 8, None),
    (PortMode.TRUNK, 1, None),                 # all VLANs
    (PortMode.TRUNK, 1, frozenset({7})),       # filtered trunk
]
MACS = [MacAddress(0x020000000001 + index) for index in range(4)]
BROADCAST = MacAddress.broadcast()


class _Tap:
    def __init__(self, index: int, log: list) -> None:
        self.index = index
        self.log = log
        self.port = Port(self, f"tap{index}")

    def receive_frame(self, frame, port) -> None:
        self.log.append((self.index, frame.vlan, frame.src, frame.dst))


class _ReferenceSwitch:
    """802.1Q learning switch, written the obvious way: a table keyed
    on ``(vlan, MacAddress)`` and address comparisons."""

    def __init__(self) -> None:
        self.table: dict = {}
        self.switched = self.flooded = self.filtered = 0

    @staticmethod
    def _carries(port: int, vlan: int) -> bool:
        mode, access_vlan, trunk_vlans = PORTS[port]
        if mode is PortMode.ACCESS:
            return vlan == access_vlan
        return trunk_vlans is None or vlan in trunk_vlans

    def receive(self, port: int, src, dst, tag):
        """Deliveries as ``(port, tag on the wire, src, dst)``."""
        mode, access_vlan, _trunk_vlans = PORTS[port]
        if mode is PortMode.ACCESS:
            vlan = access_vlan
        elif tag is None or not self._carries(port, tag):
            self.filtered += 1
            return []
        else:
            vlan = tag
        self.table[(vlan, src)] = port
        if dst != BROADCAST:
            out = self.table.get((vlan, dst))
            if out == port:
                return []
            if out is not None:
                self.switched += 1
                outs = [out]
        if dst == BROADCAST or out is None:
            self.flooded += 1
            outs = [candidate for candidate in range(len(PORTS))
                    if candidate != port and self._carries(candidate, vlan)]
        return [(out, None if PORTS[out][0] is PortMode.ACCESS else vlan,
                 src, dst) for out in outs]


switch_frames = st.lists(
    st.tuples(st.integers(0, len(PORTS) - 1),
              st.sampled_from(MACS),
              st.sampled_from(MACS + [BROADCAST]),
              st.sampled_from([None, 7, 8, 9])),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(script=switch_frames)
def test_int_keyed_switch_matches_a_plain_reference(script):
    sim = Simulator(seed=1)
    switch = Switch(sim)
    log: list = []
    taps = []
    for index, (mode, access_vlan, trunk_vlans) in enumerate(PORTS):
        tap = _Tap(index, log)
        Link(sim, tap.port, switch.attach_port(mode, access_vlan,
                                               trunk_vlans), latency=0.0)
        taps.append(tap)
    reference = _ReferenceSwitch()
    for port, src, dst, tag in script:
        del log[:]
        taps[port].port.send(EthernetFrame(src, dst, b"x", tag))
        sim.run()
        assert log == reference.receive(port, src, dst, tag)
        assert (switch.frames_switched, switch.frames_flooded,
                switch.frames_filtered) == (
            reference.switched, reference.flooded, reference.filtered)
        snapshot = switch.mac_table_snapshot()
        assert all(type(mac) is MacAddress for _vlan, mac in snapshot)
        assert {key: switch.ports.index(out)
                for key, out in snapshot.items()} == reference.table


# ----------------------------------------------------------------------
# Upstream demux map
# ----------------------------------------------------------------------
NATIVE = "198.18.0.0/29"            # six usable global addresses
DONATED = "198.51.99.0/29"
CONTROL = "198.18.100.0/29"
WORLD = IPv4Address("203.0.113.9")

demux_ops = st.lists(
    st.tuples(st.sampled_from(["create", "bind", "unbind", "remove",
                               "service-nat", "tunnel"]),
              st.integers(0, 2),        # subfarm
              st.integers(0, 7)),       # which of its inmates / services
    min_size=1, max_size=30)


def _candidates():
    return [address for cidr in (NATIVE, DONATED, CONTROL)
            for address in IPv4Network(cidr).hosts()]


@settings(max_examples=60, deadline=None)
@given(script=demux_ops)
def test_demux_map_is_the_first_router_that_owns_the_address(script):
    farm = Farm(FarmConfig(seed=3, global_networks=[NATIVE],
                           control_network=CONTROL))
    subs = [farm.create_subfarm(f"s{index}") for index in range(3)]
    gateway = farm.gateway
    candidates = _candidates()
    tunneled = False
    for op, which, pick in script:
        sub = subs[which]
        vlans = sorted(sub.inmates)
        vlan = vlans[pick % len(vlans)] if vlans else None
        try:
            if op == "create":
                sub.create_inmate(image_factory=idle_image(),
                                  autostart=False)
            elif op == "bind" and vlan is not None:
                sub.nat.bind(vlan)       # what the inmate's DHCP does
            elif op == "unbind" and vlan is not None:
                sub.nat.unbind(vlan)
            elif op == "remove" and vlan is not None:
                sub.remove_inmate(vlan)
            elif op == "service-nat":
                # A service host talking to the world rides the
                # control-network NAT: one global address per host.
                source = sub.service_network.network + 60 + pick
                sub.router.service_frame(EthernetFrame(
                    MACS[0], gateway.mac,
                    IPv4Packet(IPv4Address(source), WORLD,
                               UDPDatagram(5353, 53, b"q"))))
            elif op == "tunnel" and not tunneled:
                farm.add_gre_tunnel(DONATED, "203.0.113.250")
                tunneled = True
        except AddressPoolExhausted:
            pass
        for address in candidates:
            owners = [router for router in gateway.routers
                      if router.owns_global(address)]
            assert len(owners) <= 1
            assert gateway._router_by_global.get(address.value) is (
                owners[0] if owners else None), (op, str(address))


# ----------------------------------------------------------------------
# Safety filter
# ----------------------------------------------------------------------
class _GrowingSafetyFilter:
    """The filter as it was: a history per pair, created on sight,
    pruned on access, never deleted."""

    def __init__(self, per_window: int, per_destination: int,
                 window: float) -> None:
        self.per_window = per_window
        self.per_destination = per_destination
        self.window = window
        self.per_inmate: dict = {}
        self.per_pair: dict = {}
        self.refused = {"per-inmate": 0, "per-destination": 0}
        self.admitted: list = []

    def _prune(self, history, now) -> None:
        while history and history[0] <= now - self.window:
            history.popleft()

    def admit(self, now, vlan, destination) -> bool:
        inmate = self.per_inmate.setdefault(vlan, deque())
        pair = self.per_pair.setdefault((vlan, destination), deque())
        self._prune(inmate, now)
        self._prune(pair, now)
        if len(inmate) >= self.per_window:
            self.refused["per-inmate"] += 1
            return False
        if len(pair) >= self.per_destination:
            self.refused["per-destination"] += 1
            return False
        inmate.append(now)
        pair.append(now)
        self.admitted.append(now)
        return True

    def reset_inmate(self, vlan) -> None:
        self.per_inmate.pop(vlan, None)
        for key in [k for k in self.per_pair if k[0] == vlan]:
            del self.per_pair[key]


safety_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 1.0, 3.0, 11.0]),   # time step
              st.integers(2, 4),                              # vlan
              st.integers(0, 5),                              # destination
              st.booleans()),                                 # reset first?
    min_size=1, max_size=120)


@settings(max_examples=200, deadline=None)
@given(script=safety_steps,
       per_window=st.integers(0, 6), per_destination=st.integers(0, 3))
def test_expiring_safety_filter_matches_the_growing_one(
        script, per_window, per_destination):
    window = 10.0
    new = SafetyFilter(per_window, per_destination, window)
    old = _GrowingSafetyFilter(per_window, per_destination, window)
    now = 0.0
    for step, vlan, dst, reset in script:
        now += step
        destination = IPv4Address(0x0B000000 + dst)
        if reset and not dst:
            new.reset_inmate(vlan)
            old.reset_inmate(vlan)
        assert new.admit(now, vlan, destination) == old.admit(
            now, vlan, destination)
        # Per budget after every step: which step refused, and why.
        assert new.trips == old.refused
        assert (new.flows_admitted, new.flows_refused) == (
            len(old.admitted), sum(old.refused.values()))
        # One history per pair with a flow still in the window, so at
        # most one per flow admitted in it.
        in_window = sum(1 for at in old.admitted if at > now - window)
        assert len(new._per_pair) <= in_window
    assert new.bounds() == {"max_flows_per_window": per_window,
                            "max_flows_per_destination": per_destination,
                            "window": window}


def test_a_scan_costs_one_window_of_pair_histories():
    """The worm-scan shape: every probe a new destination.  The pair
    table used to end the run with one history per probe."""
    safety = SafetyFilter(10 ** 6, 10 ** 6, window=60.0)
    peak = 0
    for probe in range(20_000):
        assert safety.admit(probe * 0.05, 2, IPv4Address(0x0B000000 + probe))
        peak = max(peak, len(safety._per_pair))
    assert peak <= 60.0 / 0.05 + 1
    assert len(safety._pair_clock) == len(safety._per_pair)
