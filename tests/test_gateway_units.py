"""Gateway building blocks: NAT, safety filter, bridge, VLAN pool."""

from __future__ import annotations

import pytest

from repro.gateway.bridge import LearningBridge
from repro.gateway.nat import (
    AddressPool,
    AddressPoolExhausted,
    InboundMode,
    NatTable,
)
from repro.gateway.safety import SafetyFilter
from repro.inmates.vlan_pool import VlanPool, VlanPoolExhausted
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress


def make_nat():
    internal = AddressPool([IPv4Network("10.100.0.0/24")],
                           reserved=[IPv4Address("10.100.0.1")])
    global_pool = AddressPool([IPv4Network("198.18.0.0/24")])
    return NatTable(internal, global_pool)


class TestAddressPool:
    def test_sequential_allocation_skips_reserved(self):
        pool = AddressPool([IPv4Network("10.0.0.0/29")],
                           reserved=[IPv4Address("10.0.0.1")])
        assert str(pool.allocate()) == "10.0.0.2"
        assert str(pool.allocate()) == "10.0.0.3"

    def test_exhaustion(self):
        pool = AddressPool([IPv4Network("10.0.0.0/30")])  # 2 usable
        pool.allocate()
        pool.allocate()
        with pytest.raises(AddressPoolExhausted):
            pool.allocate()

    def test_release_recycles(self):
        pool = AddressPool([IPv4Network("10.0.0.0/30")])
        first = pool.allocate()
        pool.allocate()
        pool.release(first)
        assert pool.allocate() == first

    def test_spans_multiple_networks(self):
        pool = AddressPool([IPv4Network("10.0.0.0/30"),
                            IPv4Network("10.0.1.0/30")])
        addresses = [pool.allocate() for _ in range(4)]
        assert str(addresses[2]) == "10.0.1.1"


class TestNatTable:
    def test_bind_is_idempotent(self):
        nat = make_nat()
        first = nat.bind(5)
        assert nat.bind(5) == first

    def test_bidirectional_lookup(self):
        nat = make_nat()
        internal = nat.bind(5)
        global_ip = nat.global_for(5)
        assert nat.to_global(internal) == global_ip
        assert nat.to_internal(global_ip) == internal
        assert nat.vlan_for_internal(internal) == 5
        assert nat.vlan_for_global(global_ip) == 5

    def test_unbind_releases_both_addresses(self):
        nat = make_nat()
        internal = nat.bind(5)
        global_ip = nat.global_for(5)
        nat.unbind(5)
        assert nat.vlan_for_internal(internal) is None
        assert nat.vlan_for_global(global_ip) is None
        # Addresses recycle for the next inmate.
        assert nat.bind(6) == internal

    def test_internal_addresses_are_rfc1918(self):
        nat = make_nat()
        for vlan in range(2, 10):
            assert nat.bind(vlan).is_rfc1918()
            assert not nat.global_for(vlan).is_rfc1918()


class TestSafetyFilter:
    def test_admits_under_thresholds(self):
        f = SafetyFilter(max_flows_per_window=10,
                         max_flows_per_destination=5, window=60.0)
        dst = IPv4Address("203.0.113.1")
        assert all(f.admit(float(i), 7, dst) for i in range(5))

    def test_per_destination_threshold(self):
        f = SafetyFilter(max_flows_per_window=100,
                         max_flows_per_destination=3, window=60.0)
        dst = IPv4Address("203.0.113.1")
        for i in range(3):
            assert f.admit(float(i), 7, dst)
        assert not f.admit(3.0, 7, dst)
        assert f.trips == {"per-inmate": 0, "per-destination": 1}
        # A different destination is still fine.
        assert f.admit(3.0, 7, IPv4Address("203.0.113.2"))

    def test_per_inmate_threshold_across_destinations(self):
        f = SafetyFilter(max_flows_per_window=4,
                         max_flows_per_destination=100, window=60.0)
        for i in range(4):
            assert f.admit(float(i), 7, IPv4Address(f"203.0.113.{i + 1}"))
        assert not f.admit(4.0, 7, IPv4Address("203.0.113.99"))
        assert f.trips == {"per-inmate": 1, "per-destination": 0}

    def test_window_slides(self):
        f = SafetyFilter(max_flows_per_window=2,
                         max_flows_per_destination=2, window=10.0)
        dst = IPv4Address("203.0.113.1")
        assert f.admit(0.0, 7, dst)
        assert f.admit(1.0, 7, dst)
        assert not f.admit(2.0, 7, dst)
        assert f.admit(11.5, 7, dst), "old flows aged out"

    def test_reset_inmate_clears_history(self):
        f = SafetyFilter(max_flows_per_window=1,
                         max_flows_per_destination=1, window=1000.0)
        dst = IPv4Address("203.0.113.1")
        assert f.admit(0.0, 7, dst)
        assert not f.admit(1.0, 7, dst)
        f.reset_inmate(7)
        assert f.admit(2.0, 7, dst)


class TestLearningBridge:
    def test_learns_mac_and_ip(self):
        bridge = LearningBridge()
        mac = MacAddress("02:00:00:00:00:10")
        bridge.learn(5, mac, 1.0, ip=IPv4Address("10.100.0.2"))
        assert bridge.mac_for(5) == mac
        assert bridge.vlan_for_ip(IPv4Address("10.100.0.2")) == 5

    def test_ip_change_remaps(self):
        bridge = LearningBridge()
        mac = MacAddress("02:00:00:00:00:10")
        bridge.learn(5, mac, 1.0, ip=IPv4Address("10.100.0.2"))
        bridge.learn(5, mac, 2.0, ip=IPv4Address("10.100.0.9"))
        assert bridge.vlan_for_ip(IPv4Address("10.100.0.2")) is None
        assert bridge.vlan_for_ip(IPv4Address("10.100.0.9")) == 5

    def test_new_mac_resets_entry(self):
        """A reverted inmate boots with a fresh MAC: the bridge must
        treat it as a new machine."""
        bridge = LearningBridge()
        bridge.learn(5, MacAddress("02:00:00:00:00:10"), 1.0,
                     ip=IPv4Address("10.100.0.2"))
        entry = bridge.learn(5, MacAddress("02:00:00:00:00:20"), 2.0)
        assert entry.first_seen == 2.0
        assert entry.ip is None

    def test_forget(self):
        bridge = LearningBridge()
        bridge.learn(5, MacAddress("02:00:00:00:00:10"), 1.0,
                     ip=IPv4Address("10.100.0.2"))
        bridge.forget(5)
        assert bridge.mac_for(5) is None
        assert bridge.vlan_for_ip(IPv4Address("10.100.0.2")) is None


class TestVlanPool:
    def test_802_1q_ceiling(self):
        pool = VlanPool()
        assert pool.capacity == 4093  # 2..4094

    def test_exhaustion_raises(self):
        pool = VlanPool(first=10, last=12)
        for _ in range(3):
            pool.allocate()
        with pytest.raises(VlanPoolExhausted):
            pool.allocate()

    def test_release_and_reuse(self):
        pool = VlanPool(first=10, last=11)
        a = pool.allocate()
        pool.allocate()
        pool.release(a)
        assert pool.allocate() == a

    def test_allocate_specific_conflicts(self):
        pool = VlanPool(first=10, last=20)
        pool.allocate_specific(15)
        with pytest.raises(VlanPoolExhausted):
            pool.allocate_specific(15)
