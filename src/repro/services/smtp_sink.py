"""The fidelity-adjustable SMTP sink (§6.3, §7.1).

"Our most complex sink constitutes a fidelity-adjustable SMTP server
that can grab greeting banners from the actual target and randomly
drop a configurable fraction of connections."

Fidelity knobs, each tied to a §7.1 lesson:

* ``strictness`` — lenient by default, because a sink that follows the
  SMTP RFC too closely never reaches DATA for real spambots
  ("Protocol violations").
* ``banner_grabbing`` — on first contact with an unseen destination,
  connect out to the *real* mail exchanger, grab its greeting banner,
  and serve that to the spambot ("Satisfying fidelity": Waledac-class
  bots cease activity without the expected banner).
* ``drop_probability`` — randomly refuse a fraction of connections, so
  harvested campaign statistics reflect realistic delivery failure
  (visible in Figure 7: SMTP flows reflected vs. sessions completed).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.net.lines import LineReader
from repro.net.smtp import SmtpServerEngine, SmtpTransaction, Strictness
from repro.net.tcp import TcpConnection
from repro.obs.telemetry import tally

SMTP_PORT = 25


class SmtpSink:
    """SMTP sink accepting (reflected) spambot traffic.

    Parameters
    ----------
    host:
        The service host this sink runs on.
    port:
        Listening port (25 unless an experiment remaps it).
    strictness:
        Protocol rigor of the state machine.
    drop_probability:
        Fraction of connections aborted at accept time.
    banner_grabbing:
        Fetch real banners from the intended destination.  Requires
        ``banner_target_resolver`` to translate the original
        destination address the bot dialled into something routable
        from the service network (identity by default).
    default_banner:
        Served when grabbing is off or has not completed yet.
    """

    def __init__(
        self,
        host: Host,
        port: int = SMTP_PORT,
        strictness: Strictness = Strictness.LENIENT,
        drop_probability: float = 0.0,
        banner_grabbing: bool = False,
        default_banner: str = "sink.gq.example ESMTP ready",
        banner_target_resolver: Optional[
            Callable[[IPv4Address], IPv4Address]
        ] = None,
        listen_any_port: bool = True,
        fault: Optional[dict] = None,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self.host = host
        self.port = port
        self.strictness = strictness
        self.drop_probability = drop_probability
        self.banner_grabbing = banner_grabbing
        self.default_banner = default_banner
        self.banner_target_resolver = banner_target_resolver or (lambda ip: ip)
        # Scripted fault injection for exploratory containment (§7.1).
        self.fault = fault
        self._rng = host.rng

        # Harvested messages: how many, and how many of each distinct
        # body (a campaign).
        self.data_transfers = 0
        self.campaigns: Dict[bytes, int] = {}
        self.sessions_accepted = 0
        self.sessions_dropped = 0
        self.banner_cache: Dict[IPv4Address, str] = {}
        self.banner_fetches = 0
        # Protocol anomalies (bare-LF line endings, oversized lines)
        # aggregated across all sessions; each kind registers a read of
        # its count when first seen, so anomaly-free runs show none.
        self.anomalies: Dict[str, int] = {}

        tel = host.sim.telemetry
        sessions = tel.counter(
            "smtp.sessions", "SMTP sink sessions, by fidelity decision")
        sessions.register(lambda: self.sessions_accepted,
                          decision="accepted")
        sessions.register(lambda: self.sessions_dropped, decision="dropped")
        tel.counter(
            "smtp.data_transfers", "Completed SMTP DATA transactions"
        ).register(lambda: self.data_transfers)
        tel.counter(
            "smtp.banner_fetches", "Upstream banner grabs started"
        ).register(lambda: self.banner_fetches)
        self._m_anomalies = tel.counter(
            "smtp.protocol_anomalies",
            "SMTP dialect anomalies seen by the sink, by kind")

        if listen_any_port:
            host.tcp.listen_any(self._accept)
        else:
            host.tcp.listen(port, self._accept)

    # ------------------------------------------------------------------
    def _accept(self, conn: TcpConnection) -> None:
        if self.drop_probability and self._rng.random() < self.drop_probability:
            self.sessions_dropped += 1
            conn.abort()
            return
        self.sessions_accepted += 1
        banner = self._banner_for(conn)
        if banner is None:
            # Banner grab in flight: hold the connection, start the
            # engine when the grab resolves.
            self._grab_banner(conn)
            return
        self._start_engine(conn, banner)

    def _banner_for(self, conn: TcpConnection) -> Optional[str]:
        if not self.banner_grabbing:
            return self.default_banner
        # The address the bot originally dialled: with reflection the
        # sink sees itself as destination, so the real target must come
        # through the resolver (wired to the flow's original tuple by
        # the policy) — conn.local_ip is the fallback key.
        key = conn.local_ip
        return self.banner_cache.get(key)

    def _grab_banner(self, conn: TcpConnection) -> None:
        """Connect out to the real destination, grab its 220 greeting."""
        target = self.banner_target_resolver(conn.local_ip)
        self.banner_fetches += 1
        upstream = self.host.tcp.connect(target, SMTP_PORT)
        reader = LineReader()

        def on_data(c: TcpConnection, data: bytes) -> None:
            line = next(reader.feed(data), None)
            if line is None:
                return
            line = line.decode("latin-1")
            banner = line[4:] if line[:3].isdigit() else line
            if reader.cut:
                # A greeting that never ends is no banner to serve.
                banner = self.default_banner
            self.banner_cache[conn.local_ip] = banner
            c.close()
            if not conn.fully_closed:
                self._start_engine(conn, banner)

        def on_fail(c: TcpConnection) -> None:
            self.banner_cache[conn.local_ip] = self.default_banner
            if not conn.fully_closed:
                self._start_engine(conn, self.default_banner)

        upstream.on_data = on_data
        upstream.on_fail = on_fail
        upstream.on_reset = on_fail

    def _note_anomaly(self, kind: str, count: int) -> None:
        tally(self.anomalies, kind, self._m_anomalies, count, kind=kind)

    def _start_engine(self, conn: TcpConnection, banner: str) -> None:
        engine = SmtpServerEngine(
            send=conn.send,
            banner=banner,
            strictness=self.strictness,
            on_message=self._on_message,
            fault=self.fault,
            on_anomaly=self._note_anomaly,
        )
        conn.app = engine
        conn.on_data = lambda c, d: engine.feed(d)
        conn.on_remote_close = lambda c: c.close()

    def _on_message(self, transaction: SmtpTransaction) -> None:
        self.data_transfers += 1
        body = transaction.body
        self.campaigns[body] = self.campaigns.get(body, 0) + 1
