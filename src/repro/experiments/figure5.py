"""Figure 5: the REWRITE packet ladder, regenerated from a live run.

Reproduces the paper's exact walkthrough: an inmate requests
``bot.exe`` over HTTP; the containment server rewrites the request to
``cleanup.exe`` on its way to the real target and turns the target's
200 into a 404 on the way back.  The harness captures the inmate-side
and containment-side traces and renders the annotated ladder.
"""

from __future__ import annotations

from typing import List

from repro.core.policy import Action, ContainmentPolicy, Rewriter
from repro.farm import Farm, FarmConfig
from repro.net.http import HttpRequest, HttpResponse, request, serve
from repro.net.packet import PROTO_TCP
from repro.net.addresses import IPv4Address
from repro.services.dhcp import DhcpClient

WEB_IP = "192.150.187.12"  # the figure's target address


class _Fig5Rewriter(Rewriter):
    def on_client_data(self, proxy, data):
        proxy.send_to_server(
            data.replace(b"GET /bot.exe", b"GET /cleanup.exe"))

    def on_server_data(self, proxy, data):
        if data.startswith(b"HTTP/1.1 200"):
            proxy.send_to_client(HttpResponse(404).to_bytes())
        else:
            proxy.send_to_client(data)


class Figure5Policy(ContainmentPolicy):
    name = "Figure5"
    default = Action("rewrite", "fig5 rewrite")

    def make_rewriter(self, ctx):
        return _Fig5Rewriter()


class Figure5Result:
    def __init__(self) -> None:
        self.ladder: List[str] = []
        self.request_on_wire = ""
        self.response_to_inmate = ""
        self.seq_bump_observed = False
        self.shim_lengths: List[int] = []

    def rendered(self) -> str:
        return "\n".join(self.ladder)


def run_figure5(seed: int = 9, duration: float = 120.0) -> Figure5Result:
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("fig5")
    web = farm.add_external_host("webserver", WEB_IP)
    served = []

    def respond(message):
        served.append(message)
        return HttpResponse(200, body=b"CLEANUP-BYTES")

    serve(web, 80, respond)

    responses = []

    def image(host):
        def fetch(configured_host):
            request(configured_host, IPv4Address(WEB_IP), 80,
                    HttpRequest("GET", "/bot.exe",
                                {"Host": "badguys.example"}),
                    lambda _conn, response: responses.append(response))

        DhcpClient(host, on_configured=fetch).start()

    sub.create_inmate(image_factory=image, policy=Figure5Policy())
    sub.router.trace.store = True  # the ladder reads every frame
    farm.run(until=duration)

    result = Figure5Result()
    result.request_on_wire = served[0].path if served else "(never arrived)"
    result.response_to_inmate = (
        f"{responses[0].status} {responses[0].reason}" if responses
        else "(none)"
    )

    from repro.core.shim import SHIM_MAGIC

    for record in sub.router.trace.records:
        ip = record.ip
        if ip is None or ip.proto != PROTO_TCP:
            continue
        segment = ip.tcp
        if segment.dport in (67, 68) or segment.sport in (67, 68):
            continue
        note = ""
        payload = segment.payload
        if len(payload) >= 8 and int.from_bytes(payload[:4], "big") == SHIM_MAGIC:
            kind = "REQ SHIM" if payload[6] == 1 else "RSP SHIM"
            note = f"  <-- {kind} ({len(payload)} bytes in sequence space)"
            result.shim_lengths.append(len(payload))
            result.seq_bump_observed = True
        elif payload.startswith(b"GET "):
            note = f"  <-- {payload.splitlines()[0].decode('latin-1')!r}"
        elif payload.startswith(b"HTTP/"):
            note = f"  <-- {payload.splitlines()[0].decode('latin-1')!r}"
        result.ladder.append(
            f"t={record.timestamp:9.4f} [{record.point:11s}] "
            f"{ip.src}:{segment.sport} -> {ip.dst}:{segment.dport} "
            f"{segment.flag_string():11s} seq={segment.seq:<10d} "
            f"ack={segment.ack:<10d} len={len(payload):<5d}{note}"
        )
    return result


def render(result: Figure5Result) -> str:
    header = (
        "Figure 5 — TCP packet flow through gateway and containment "
        "server (REWRITE)\n"
        f"Request seen by the real target : GET {result.request_on_wire}  "
        "(inmate sent /bot.exe)\n"
        f"Response seen by the inmate     : {result.response_to_inmate}  "
        "(target sent 200 OK)\n"
        f"Shims carried in sequence space : {result.shim_lengths} bytes\n"
    )
    return header + "\n" + result.rendered()
