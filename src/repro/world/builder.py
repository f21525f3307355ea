"""Assembles the external universe around a Farm.

:class:`ExternalWorld` populates the simulated Internet: authoritative
DNS, a directory of victim domains with mail exchangers (including a
GMail-like fingerprinting MX), family C&C servers, and FTP sites.  It
owns the address plan for external space (TEST-NET-3 and TEST-NET-2
ranges) so experiments never collide with the farm's own networks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.farm import Farm
from repro.net.addresses import IPv4Address
from repro.world.blacklist import BlockingList
from repro.world.cnc import (
    CampaignSource,
    HttpCncServer,
    MegadCncServer,
    MEGAD_PORT,
)
from repro.world.dns_authority import AuthoritativeDns
from repro.world.ftp_sites import FtpSite
from repro.world.mail import FingerprintingMx, MailExchanger

AUTHORITATIVE_DNS_IP = "203.0.113.53"


class VictimDomain:
    """One victim domain: an MX host plus mailboxes."""

    __slots__ = ("domain", "mx_name", "mx", "mailboxes")

    def __init__(self, domain: str, mx_name: str, mx: MailExchanger,
                 mailboxes: List[str]) -> None:
        self.domain = domain
        self.mx_name = mx_name
        self.mx = mx
        self.mailboxes = mailboxes


class ExternalWorld:
    """The outside Internet, reactive and measurable."""

    def __init__(self, farm: Farm, seed_label: str = "world") -> None:
        self.farm = farm
        self.rng = farm.sim.rng(seed_label)
        self._next_host_octet = {"203.0.113.0": 100, "198.51.100.0": 10}

        dns_host = farm.add_external_host("authoritative-dns",
                                          AUTHORITATIVE_DNS_IP)
        self.dns = AuthoritativeDns(dns_host)
        farm.authoritative_dns_ip = dns_host.ip
        # Resolvers created before the world existed pick it up too.
        for subfarm in farm.subfarms.values():
            subfarm.resolver.upstream_ip = dns_host.ip

        self.blocklist = BlockingList("CBL")
        self.victim_domains: List[VictimDomain] = []
        self.cnc_servers: Dict[str, object] = {}
        self.ftp_sites: Dict[str, FtpSite] = {}

    # ------------------------------------------------------------------
    def allocate_ip(self, network: str = "203.0.113.0") -> IPv4Address:
        octet = self._next_host_octet[network]
        self._next_host_octet[network] = octet + 1
        if octet > 254:
            raise RuntimeError(f"external network {network} exhausted")
        base = network.rsplit(".", 1)[0]
        return IPv4Address(f"{base}.{octet}")

    # ------------------------------------------------------------------
    # Victim mail infrastructure
    # ------------------------------------------------------------------
    def add_victim_domain(
        self,
        domain: str,
        mailbox_count: int = 50,
        banner: Optional[str] = None,
        fingerprinting: bool = False,
        suspicious_helos: Optional[List[str]] = None,
    ) -> VictimDomain:
        ip = self.allocate_ip()
        mx_name = f"mx1.{domain}"
        host = self.farm.add_external_host(mx_name, str(ip))
        banner = banner or f"{mx_name} ESMTP Postfix (Debian/GNU)"
        if fingerprinting:
            mx: MailExchanger = FingerprintingMx(
                host, banner, self.blocklist,
                suspicious_helos=suspicious_helos,
            )
            mx.blocklist = self.blocklist  # volume reporting too
        else:
            mx = MailExchanger(host, banner, blocklist=self.blocklist)
        mailboxes = [f"user{i}@{domain}" for i in range(mailbox_count)]
        victim = VictimDomain(domain, mx_name, mx, mailboxes)
        self.victim_domains.append(victim)
        self.dns.add_a(mx_name, ip)
        self.dns.add_a(domain, ip)
        self.dns.add_mx(domain, mx_name)
        return victim

    def add_standard_victims(self, domains: int = 4,
                             mailboxes_per_domain: int = 50) -> None:
        """A default victim population plus the GMail-like provider."""
        for i in range(domains):
            self.add_victim_domain(f"victim{i}.example",
                                   mailbox_count=mailboxes_per_domain)
        self.add_victim_domain(
            "gmail.example",
            mailbox_count=mailboxes_per_domain,
            banner="mx.google.example ESMTP s7si12 - gsmtp",
            fingerprinting=True,
        )

    def victim_directory(self) -> List[str]:
        """All known mailboxes — raw material for spam campaigns."""
        out: List[str] = []
        for victim in self.victim_domains:
            out.extend(victim.mailboxes)
        return out

    def mx_for_domain(self, domain: str) -> Optional[VictimDomain]:
        for victim in self.victim_domains:
            if victim.domain == domain:
                return victim
        return None

    def total_spam_delivered(self) -> int:
        return sum(v.mx.delivered for v in self.victim_domains)

    # ------------------------------------------------------------------
    # C&C servers
    # ------------------------------------------------------------------
    def add_http_cnc(
        self,
        family: str,
        domain: str,
        campaign: Optional[CampaignSource] = None,
        port: int = 80,
        path_prefix: str = "/",
        extra_routes=None,
        on_host=None,
    ) -> HttpCncServer:
        """Stand up an HTTP C&C endpoint.  Pass ``on_host`` to add a
        second listener (e.g. Rustock's port-80 beacon endpoint) to an
        existing C&C host instead of creating a new one."""
        if on_host is None:
            ip = self.allocate_ip("198.51.100.0")
            host = self.farm.add_external_host(f"cnc-{family}", str(ip))
            self.dns.add_a(domain, ip)
        else:
            host = on_host
        campaign = campaign or self.default_campaign(family)
        server = HttpCncServer(host, campaign, port=port,
                               path_prefix=path_prefix,
                               extra_routes=extra_routes)
        self.cnc_servers[family] = server
        return server

    def add_megad_cnc(self, domain: str = "megad-ctrl.example",
                      campaign: Optional[CampaignSource] = None
                      ) -> MegadCncServer:
        ip = self.allocate_ip("198.51.100.0")
        host = self.farm.add_external_host("cnc-megad", str(ip))
        campaign = campaign or self.default_campaign("megad")
        server = MegadCncServer(host, campaign, port=MEGAD_PORT)
        self.cnc_servers["megad"] = server
        self.dns.add_a(domain, ip)
        return server

    def default_campaign(self, family: str,
                         batch_size: int = 20,
                         send_interval: float = 2.0) -> CampaignSource:
        return CampaignSource(
            name=f"{family}-pharma",
            targets=self.victim_directory(),
            body=(f"Subject: cheap meds from {family}\r\n\r\n"
                  f"Buy now at http://pills.example/{family}").encode("ascii"),
            batch_size=batch_size,
            send_interval=send_interval,
        )

    # ------------------------------------------------------------------
    # Websites and clickbot infrastructure
    # ------------------------------------------------------------------
    def add_publisher(self, domain: str, port: int = 80):
        """A publisher website whose hit counter measures click fraud."""
        from repro.world.websites import PublisherSite

        ip = self.allocate_ip()
        host = self.farm.add_external_host(f"web-{domain}", str(ip))
        site = PublisherSite(host, port=port)
        self.dns.add_a(domain, ip)
        return site

    def add_click_cnc(self, domain: str, tasks, interval: float = 5.0):
        """The clickbot task server."""
        from repro.world.websites import ClickCncServer

        ip = self.allocate_ip("198.51.100.0")
        host = self.farm.add_external_host("cnc-clickbot", str(ip))
        server = ClickCncServer(host, tasks, interval=interval)
        self.cnc_servers["clickbot"] = server
        self.dns.add_a(domain, ip)
        return server

    # ------------------------------------------------------------------
    # FTP sites (Storm iframe-injection targets)
    # ------------------------------------------------------------------
    def add_ftp_site(self, domain: str, username: str,
                     password: str) -> FtpSite:
        ip = self.allocate_ip()
        host = self.farm.add_external_host(f"ftp-{domain}", str(ip))
        page = (b"<html><head><title>" + domain.encode() +
                b"</title></head><body>welcome</body></html>")
        site = FtpSite(host, {username: password}, {"index.html": page})
        self.ftp_sites[domain] = site
        self.dns.add_a(domain, ip)
        return site

    def __repr__(self) -> str:
        return (
            f"<ExternalWorld victims={len(self.victim_domains)} "
            f"cnc={list(self.cnc_servers)}>"
        )
