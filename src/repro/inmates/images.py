"""Inmate OS images: the boot-time behaviour factories.

An *image* is what a hosting backend restores on revert: a function
that installs the machine's boot behaviour onto a fresh host.  The
reproduction ships the two images the paper's workflows need:

* :func:`autoinfect_image` — GQ's master image for intentional
  infection (§6.6): at first boot, DHCP, then the infection script
  fetches the sample over HTTP from the preconfigured address/port and
  executes it.  (The HTTP "server" is impersonated by the containment
  server as a REWRITE containment.)
* :func:`honeypot_image` — the worm-era image: DHCP, then vulnerable
  services listening for exploitation (traditional honeyfarm model).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.malware.corpus import execute_blob
from repro.malware.worms import VulnerableServices
from repro.net.addresses import IPv4Address
from repro.net.http import HttpRequest, HttpResponse, request
from repro.net.host import Host
from repro.net.tcp import TcpConnection
from repro.services.dhcp import DhcpClient

# Figure 6's [Autoinfect] section: the address the infection script
# dials.  It deliberately belongs to no real machine.
AUTOINFECT_ADDRESS = IPv4Address("10.9.8.7")
AUTOINFECT_PORT = 6543


class InfectionScript:
    """The master image's first-boot infection routine (§6.6)."""

    def __init__(self, host: Host,
                 address: IPv4Address = AUTOINFECT_ADDRESS,
                 port: int = AUTOINFECT_PORT,
                 on_executed: Optional[Callable] = None,
                 retry_interval: float = 30.0) -> None:
        self.host = host
        self.address = IPv4Address(address)
        self.port = port
        self.on_executed = on_executed
        self.retry_interval = retry_interval
        self.attempts = 0
        self.specimen = None

    def run(self) -> None:
        if self.specimen is not None:
            return
        self.attempts += 1
        request(self.host, self.address, self.port,
                HttpRequest("GET", "/sample",
                            {"Host": str(self.address),
                             "User-Agent": "gq-infect/1.0"}),
                self._on_response, lambda c: self._retry())

    def _on_response(self, conn: TcpConnection,
                     response: HttpResponse) -> None:
        conn.close()
        if response.status == 200 and response.body:
            self._execute(response.body)
        else:
            self._retry()

    def _execute(self, blob: bytes) -> None:
        try:
            self.specimen = execute_blob(blob, self.host)
        except (ValueError, KeyError):
            self._retry()
            return
        self.host.specimen = self.specimen  # type: ignore[attr-defined]
        if self.on_executed is not None:
            self.on_executed(self.host, self.specimen)

    def _retry(self) -> None:
        self.host.sim.schedule(self.retry_interval, self.run,
                               label="infect-retry")


def autoinfect_image(
    on_executed: Optional[Callable] = None,
    address: IPv4Address = AUTOINFECT_ADDRESS,
    port: int = AUTOINFECT_PORT,
    boot_delay: float = 2.0,
):
    """Image factory: DHCP then the auto-infection script.

    The script runs at *first* boot only — "subsequent reboots should
    not trigger reinfection, as some malware intentionally triggers
    reboots itself" — which falls out naturally here because a reboot
    without revert keeps the host object and its running specimen.
    """

    def image(host: Host) -> None:
        script = InfectionScript(host, address, port, on_executed)
        host.infection_script = script  # type: ignore[attr-defined]

        def configured(configured_host: Host) -> None:
            configured_host.sim.schedule(boot_delay, script.run,
                                         label="first-boot-infect")

        DhcpClient(host, on_configured=configured).start()

    return image


def honeypot_image(
    on_infected: Callable,
    ports: Optional[List[int]] = None,
):
    """Image factory: DHCP plus the era's vulnerable services.

    ``on_infected(host, family_key, sample_id, params)`` decides what
    executing the delivered exploit means — typically instantiating
    the matching worm model on the victim.
    """

    def image(host: Host) -> None:
        def configured(configured_host: Host) -> None:
            configured_host.vuln = VulnerableServices(  # type: ignore
                configured_host, on_infected, ports=ports,
            )

        DhcpClient(host, on_configured=configured).start()

    return image


def honeycrawler_image(
    urls: List[str],
    visit_interval: float = 20.0,
    on_infection: Optional[Callable] = None,
):
    """Image factory: a honeycrawler (§4's client-side role).

    The crawler visits each URL in turn with a deliberately vulnerable
    "browser": pages referencing ``/exploit.js`` trigger the classic
    drive-by chain (fetch script, fetch payload, execute) — the web
    drive-by infection §6.6 mentions.  ``urls`` are host names
    resolved through the farm resolver.
    """
    from repro.net.dns import QTYPE_A, StubResolverClient

    def image(host: Host) -> None:
        state = {"visited": [], "infected": False}
        host.crawler_state = state  # type: ignore[attr-defined]

        def configured(configured_host: Host) -> None:
            resolver = StubResolverClient(
                configured_host, configured_host.dns_server)

            def visit(index: int) -> None:
                if state["infected"] or index >= len(urls):
                    return
                name = urls[index]

                def resolved(records) -> None:
                    if not records:
                        advance()
                        return
                    fetch(records[0].address, name, "/", handle_page)

                def handle_page(body: bytes) -> None:
                    state["visited"].append(name)
                    if b'src="/exploit.js"' in body:
                        fetch_ip_for_exploit(name)
                    else:
                        advance()

                def fetch_ip_for_exploit(site: str) -> None:
                    def got(records) -> None:
                        if records:
                            fetch(records[0].address, site, "/exploit.js",
                                  lambda _js: fetch(
                                      records[0].address, site,
                                      "/payload.exe", execute))
                    resolver.resolve(site, got, QTYPE_A)

                def execute(blob: bytes) -> None:
                    try:
                        specimen = execute_blob(blob, configured_host)
                    except (ValueError, KeyError):
                        advance()
                        return
                    state["infected"] = True
                    configured_host.specimen = specimen  # type: ignore
                    if on_infection is not None:
                        on_infection(configured_host, specimen)

                def advance() -> None:
                    configured_host.sim.schedule(
                        visit_interval, visit, index + 1,
                        label="crawler-visit")

                resolver.resolve(name, resolved, QTYPE_A)

            def fetch(ip, site: str, path: str, done) -> None:
                def on_response(conn, response):
                    conn.close()
                    done(response.body)

                request(configured_host, ip, 80,
                        HttpRequest("GET", path,
                                    {"Host": site,
                                     "User-Agent": "MSIE/6.0 (vulnerable)"}),
                        on_response)

            visit(0)

        DhcpClient(host, on_configured=configured).start()

    return image


def idle_image():
    """A machine that boots and does nothing (control group)."""

    def image(host: Host) -> None:
        DhcpClient(host).start()

    return image
