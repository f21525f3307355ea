"""Worm honeyfarm: inbound capture, redirect containment, Table 1
measurement machinery."""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.worm_capture import run_worm_capture
from repro.malware.worm_table import (
    SLOW_INCUBATION_THRESHOLD,
    TABLE_1,
    distinct_families,
    slow_rows,
    vuln_ports_for,
)
from repro.malware.worms import exploit_stage, parse_exploit

pytestmark = pytest.mark.integration

KORGO_Q = TABLE_1[28]
WELCHIA = TABLE_1[5]


class TestWormTable:
    def test_table_has_66_rows(self):
        assert len(TABLE_1) == 66

    def test_family_roster_near_14(self):
        # "66 distinct worms belonging to 14 different malware
        # families" — our variant normalization yields 16 base
        # families; the paper's Symantec-era grouping merged two more
        # (not specified).  See EXPERIMENTS.md.
        families = distinct_families()
        assert 14 <= len(families) <= 16
        assert "W32.Korgo" in families       # all Korgo variants folded
        assert "W32.Blaster" in families     # Blaster.F folded in

    def test_slow_infection_classes(self):
        # "nine infection classes required more than three minutes" —
        # the table bolds 10 rows above 180 s (one at 180.8 s is
        # borderline three minutes).
        assert 9 <= len(slow_rows()) <= 10
        assert all(r.incubation > SLOW_INCUBATION_THRESHOLD
                   for r in slow_rows())

    def test_connection_extremes(self):
        conns = [row.conns for row in TABLE_1]
        assert min(conns) == 2      # Korgo-class
        assert max(conns) == 72     # BAT.Boohoo.Worm

    def test_vuln_ports_known_for_every_row(self):
        for row in TABLE_1:
            assert vuln_ports_for(row.label), row


class TestExploitProtocol:
    def test_stage_round_trip(self):
        wire = exploit_stage("W32.Korgo.Q", 1, 2, "a" * 32)
        family, stage, total, sample = parse_exploit(wire)
        assert (family, stage, total) == ("W32.Korgo.Q", 1, 2)
        assert sample == "a" * 32

    def test_garbage_rejected(self):
        assert parse_exploit(b"GET / HTTP/1.1\r\n") is None
        assert parse_exploit(b"GQX|mangled") is None


class TestWormCapture:
    def test_fast_worm_chain_infects_whole_farm(self):
        result = run_worm_capture(KORGO_Q, inmates=4, duration=900, seed=1)
        # wild infection + in-farm chain across the remaining inmates
        assert result.event_count == 4
        assert result.conns_per_infection == KORGO_Q.conns

    def test_incubation_tracks_paper_value(self):
        result = run_worm_capture(KORGO_Q, inmates=4, duration=900, seed=1)
        mean = result.mean_incubation
        assert mean is not None
        assert KORGO_Q.incubation * 0.5 < mean < KORGO_Q.incubation * 2.0

    def test_multi_connection_exploit_measured(self):
        result = run_worm_capture(WELCHIA, inmates=3, duration=900, seed=5)
        assert result.event_count >= 2
        assert result.conns_per_infection == WELCHIA.conns

    @pytest.mark.parametrize("index", [9, 17, 63, 65])
    def test_table1_shape_at_the_tracked_parameters(self, index):
        """The >3-minute classes and the 72-connection extreme, run as
        ``python -m repro.experiments table1-worms`` runs them:
        connections per infection reproduce exactly, incubation tracks
        the paper within the band."""
        row = TABLE_1[index]
        result = run_worm_capture(row, inmates=4, duration=3600.0,
                                  seed=100 + index)
        assert result.event_count >= 2
        assert result.conns_per_infection == row.conns
        assert (row.incubation * 0.4 <= result.mean_incubation
                <= row.incubation * 2.5 + 30.0)

    def test_tracked_table1_reproduces_every_row(self):
        """All 66 rows, read from the artefact ``make paper`` holds
        byte-equal to what ``table1-worms`` regenerates: every class
        was measured, its connection count is the paper's exactly and
        its incubation lies within the band."""
        tracked = (pathlib.Path(__file__).parent.parent
                   / "benchmarks/output/table1_worms.txt")
        lines = tracked.read_text(encoding="utf-8").splitlines()[4:-2]
        assert len(lines) == len(TABLE_1)
        for row, line in zip(TABLE_1, lines):
            events, conns, paper, measured = \
                line.replace("<-- >3min", "").split()[-4:]
            assert int(events) >= 2, line
            assert int(conns) == row.conns, line
            assert float(paper) == round(row.incubation, 1), line
            assert (row.incubation * 0.4 <= float(measured)
                    <= row.incubation * 2.5 + 30.0), line

    def test_no_propagation_escapes_upstream(self):
        """Containment invariant: exploit traffic never reaches the
        outside world (only harmless scan SYNs may exit, and with the
        redirect policy not even those do for successful attempts)."""
        from repro.farm import Farm  # imported for typing clarity only

        result = run_worm_capture(KORGO_Q, inmates=3, duration=600, seed=3)
        assert result.event_count >= 2
        # The redirect policy kept every completed propagation in-farm:
        # each in-farm infection's attacker is an in-farm address.
        in_farm_ips = {e.host_ip for e in result.events}
        for event in result.events[1:]:
            assert event.attacker_ip in in_farm_ips

    def test_farm_saturation_stops_chain(self):
        result = run_worm_capture(KORGO_Q, inmates=2, duration=600, seed=7)
        assert result.event_count == 2  # no fresh inmates after that
