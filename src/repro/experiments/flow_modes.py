"""Figure 2: the six flow-manipulation modes, observed end to end.

One inmate flow per mode; the result records what each party saw, so
the benchmark can print the Figure 2 semantics as a table: where the
flow went, whether contents changed, and what the originator
experienced.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.policy import (
    Action,
    AllowAll,
    ContainmentPolicy,
    DefaultDeny,
    ReflectAll,
    Rewriter,
)
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpResponse

WEB_IP = "203.0.113.80"
ALT_IP = "203.0.113.99"

MODES = ("forward", "rate-limit", "drop", "redirect", "reflect", "rewrite")


class ModeObservation:
    """What each party saw for one Figure 2 mode."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.reached_real_target = False
        self.reached_alternate = False
        self.reached_sink = False
        self.client_saw_response: Optional[bytes] = None
        self.client_reset = False
        self.completion_time: Optional[float] = None

    def __repr__(self) -> str:
        return f"<Mode {self.mode}: response={self.client_saw_response!r}>"


class _RedirectPolicy(ContainmentPolicy):
    default = Action("redirect", "figure2 redirect",
                     target_ip=IPv4Address(ALT_IP), target_port=80)


class _LimitPolicy(ContainmentPolicy):
    default = Action("limit", "figure2 rate-limit", rate=2000.0)


class _RewritePolicy(ContainmentPolicy):
    class _Rw(Rewriter):
        # Same-length substitution: a naive rewriter must not break
        # the Content-Length framing it passes through untouched.
        def on_server_data(self, proxy, data):
            proxy.send_to_client(data.replace(b"REAL", b"FAKE"))

    default = Action("rewrite", "figure2 rewrite")

    def make_rewriter(self, ctx):
        return self._Rw()


POLICIES = {
    "forward": AllowAll,
    "rate-limit": _LimitPolicy,
    "drop": DefaultDeny,
    "redirect": _RedirectPolicy,
    "reflect": ReflectAll,
    "rewrite": _RewritePolicy,
}


def observe_mode(mode: str, duration: float = 120.0,
                 seed: int = 2) -> ModeObservation:
    from repro.inmates.images import autoinfect_image  # noqa: F401 (doc)
    from repro.net.http import HttpParser, HttpRequest
    from repro.services.dhcp import DhcpClient

    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("fig2")
    sub.add_catchall_sink()

    observation = ModeObservation(mode)

    web = farm.add_external_host("webserver", WEB_IP)

    def serve(host, marker):
        def on_accept(conn):
            parser = HttpParser("request")

            def on_data(c, data):
                for _request in parser.feed(data):
                    if marker == b"REAL":
                        observation.reached_real_target = True
                    else:
                        observation.reached_alternate = True
                    c.send(HttpResponse(200, body=marker).to_bytes())

            conn.on_data = on_data
            conn.on_remote_close = lambda c: c.close()

        host.tcp.listen(80, on_accept)

    serve(web, b"REAL")
    alt = farm.add_external_host("altserver", ALT_IP)
    serve(alt, b"ALTERNATE")

    def image(host):
        def fetch(configured_host):
            conn = configured_host.tcp.connect(IPv4Address(WEB_IP), 80)
            parser = HttpParser("response")

            def on_data(c, data):
                for response in parser.feed(data):
                    observation.client_saw_response = response.body
                    observation.completion_time = farm.sim.now

            conn.on_established = lambda c: c.send(
                HttpRequest("GET", "/payload").to_bytes())
            conn.on_data = on_data
            conn.on_reset = lambda c: setattr(observation, "client_reset",
                                              True)

        DhcpClient(host, on_configured=fetch).start()

    policy = POLICIES[mode]()
    sub.create_inmate(image_factory=image, policy=policy)
    farm.run(until=duration)
    observation.reached_sink = \
        sub.sinks["sink"].connections_accepted > 0
    return observation


def observe_all_modes(duration: float = 120.0,
                      seed: int = 2) -> Dict[str, ModeObservation]:
    return {mode: observe_mode(mode, duration, seed) for mode in MODES}


def render(observations: Dict[str, ModeObservation]) -> str:
    lines = [
        "Figure 2 — flow manipulation modes (flows initiated by an inmate)",
        "",
        f"{'MODE':<12} {'REAL TARGET':>11} {'ALTERNATE':>9} {'SINK':>5} "
        f"{'CLIENT OUTCOME':<28}",
        "-" * 70,
    ]
    for mode, obs in observations.items():
        if obs.client_reset:
            outcome = "connection reset (killed)"
        elif obs.client_saw_response is not None:
            outcome = f"response {obs.client_saw_response!r}"
        else:
            outcome = "silence (idles)"
        lines.append(
            f"{mode:<12} {'yes' if obs.reached_real_target else 'no':>11} "
            f"{'yes' if obs.reached_alternate else 'no':>9} "
            f"{'yes' if obs.reached_sink else 'no':>5} {outcome:<28}"
        )
    return "\n".join(lines)
