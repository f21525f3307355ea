"""Victim mail exchangers in the external universe.

Real MXes matter to the reproduction in two ways:

* They carry distinctive greeting banners, which banner-checking
  spambots (Waledac-class) demand and GQ's banner-grabbing SMTP sink
  fetches from here (§7.1 "Satisfying fidelity").
* Providers fingerprint bot dialects.  :class:`FingerprintingMx`
  models the GMail behaviour of §7.1: recognize a suspicious HELO
  string and report the sender's address to the blocking list.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.net.host import Host
from repro.net.smtp import SmtpServerEngine, SmtpTransaction, Strictness
from repro.net.tcp import TcpConnection
from repro.world.blacklist import BlockingList

SMTP_PORT = 25


class MailExchanger:
    """A victim MX: accepts mail, counts deliveries.

    Optionally wired to a blocking list with a volume threshold — the
    CBL pipeline in its most common form: a source that delivers more
    than ``volume_threshold`` messages gets reported as a spammer.
    """

    def __init__(self, host: Host, banner: str,
                 strictness: Strictness = Strictness.LENIENT,
                 blocklist: Optional[BlockingList] = None,
                 volume_threshold: int = 25) -> None:
        self.host = host
        self.banner = banner
        self.strictness = strictness
        self.blocklist = blocklist
        self.volume_threshold = volume_threshold
        self.delivered = 0
        self.sessions = 0
        self._volume_by_source: dict = {}
        host.tcp.listen(SMTP_PORT, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        self.sessions += 1
        engine = SmtpServerEngine(
            send=conn.send,
            banner=self.banner,
            strictness=self.strictness,
            on_message=lambda t: self._on_message(t, conn.remote_ip),
        )
        conn.app = engine
        conn.on_data = lambda c, d: self._feed(engine, c, d)
        conn.on_remote_close = lambda c: c.close()

    def _feed(self, engine: SmtpServerEngine, conn: TcpConnection,
              data: bytes) -> None:
        engine.feed(data)
        if engine.quit_received and not conn.fully_closed:
            conn.close()

    def _on_message(self, transaction: SmtpTransaction,
                    source=None) -> None:
        self.delivered += 1
        if self.blocklist is not None and source is not None:
            volume = self._volume_by_source.get(source, 0) + 1
            self._volume_by_source[source] = volume
            if volume == self.volume_threshold:
                self.blocklist.report(
                    source, self.host.sim.now,
                    f"spam volume over {self.volume_threshold} at "
                    f"{self.banner.split()[0]}",
                )


class FingerprintingMx(MailExchanger):
    """An MX that detects known-bot HELO strings and tells the list.

    The GMail model of §7.1: Waledac's ``wergvan`` HELO was recognized
    and the sending addresses were passed to blacklist providers.
    """

    def __init__(
        self,
        host: Host,
        banner: str,
        blocklist: BlockingList,
        suspicious_helos: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(host, banner)
        self.blocklist = blocklist
        self.suspicious_helos: Set[str] = {
            h.lower() for h in (suspicious_helos or ["wergvan"])
        }
        self.detections = 0

    def _accept(self, conn: TcpConnection) -> None:
        self.sessions += 1
        remote = conn.remote_ip
        engine = SmtpServerEngine(
            send=conn.send,
            banner=self.banner,
            strictness=self.strictness,
            on_message=lambda t: self._on_message(t, remote),
        )
        conn.app = engine

        def feed(c: TcpConnection, data: bytes) -> None:
            engine.feed(data)
            if engine.helo.lower() in self.suspicious_helos:
                self.detections += 1
                self.blocklist.report(
                    remote, self.host.sim.now,
                    f"recognized HELO {engine.helo!r}",
                )
            if engine.quit_received and not c.fully_closed:
                c.close()

        conn.on_data = feed
        conn.on_remote_close = lambda c: c.close()
