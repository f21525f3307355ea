"""Minimal IRC (RFC 1459 subset) — the classic botnet C&C channel.

§4 names IRC-based C&C as exactly the kind of family a versatile farm
must host without special-casing ("focus on a particular class of
botnets, say those using IRC as C&C ... restricts versatility").  The
subset here is what bot herding needs: registration (NICK/USER),
JOIN, channel topics carrying commands, PRIVMSG, and PING/PONG
keepalive.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.net.lines import CRLF, LineReader


class IrcChannel:
    """One channel: name, topic, member nicks, message log."""

    def __init__(self, name: str, topic: str = "") -> None:
        self.name = name
        self.topic = topic
        self.members: Set[str] = set()
        self.messages: List[tuple] = []


class IrcServerEngine:
    """Server side of one client connection (channels shared via the
    owning :class:`IrcNetwork`)."""

    def __init__(self, network: "IrcNetwork",
                 send: Callable[[bytes], None]) -> None:
        self.network = network
        self._send = send
        self.nick: Optional[str] = None
        self.registered = False
        self.reader = LineReader(bare_lf=True)

    def _line(self, text: str) -> None:
        self._send(text.encode("latin-1") + CRLF)

    def feed(self, data: bytes) -> None:
        for line in self.reader.feed(data):
            if line:
                self._command(line.decode("latin-1"))

    def _command(self, line: str) -> None:
        verb, _, rest = line.partition(" ")
        verb = verb.upper()
        server = self.network.name
        if verb == "NICK":
            self.nick = rest.strip()
        elif verb == "USER":
            if self.nick:
                self.registered = True
                self.network.clients[self.nick] = self
                self._line(f":{server} 001 {self.nick} :Welcome to "
                           f"{server}")
        elif verb == "JOIN":
            if not self.registered:
                self._line(f":{server} 451 * :You have not registered")
                return
            channel_name = rest.strip().split(" ")[0]
            channel = self.network.channel(channel_name)
            channel.members.add(self.nick)
            self._line(f":{self.nick} JOIN {channel_name}")
            if channel.topic:
                self._line(f":{server} 332 {self.nick} {channel_name} "
                           f":{channel.topic}")
        elif verb == "PRIVMSG":
            target, _, message = rest.partition(" :")
            target = target.strip()
            self.network.privmsg(self.nick or "?", target, message)
        elif verb == "PING":
            token = rest.lstrip(":").strip()
            self._line(f":{server} PONG {server} :{token}")
        elif verb == "PONG":
            pass
        elif verb == "QUIT":
            if self.nick:
                self.network.clients.pop(self.nick, None)

    # Called by the network to push a message to this client.
    def deliver(self, source: str, target: str, message: str) -> None:
        self._line(f":{source} PRIVMSG {target} :{message}")

    def deliver_topic(self, channel: IrcChannel) -> None:
        self._line(f":{self.network.name} 332 {self.nick} "
                   f"{channel.name} :{channel.topic}")


class IrcNetwork:
    """Shared channel/nick state across all connections of a server."""

    def __init__(self, name: str = "irc.cnc.example") -> None:
        self.name = name
        self.channels: Dict[str, IrcChannel] = {}
        self.clients: Dict[str, IrcServerEngine] = {}
        self.messages_relayed = 0

    def channel(self, name: str) -> IrcChannel:
        if name not in self.channels:
            self.channels[name] = IrcChannel(name)
        return self.channels[name]

    def set_topic(self, channel_name: str, topic: str) -> None:
        """Herder-side: change a channel topic and notify members —
        the classic way of issuing commands to a whole botnet."""
        channel = self.channel(channel_name)
        channel.topic = topic
        for nick in list(channel.members):
            client = self.clients.get(nick)
            if client is not None:
                client.deliver_topic(channel)

    def privmsg(self, source: str, target: str, message: str) -> None:
        self.messages_relayed += 1
        if target.startswith("#"):
            channel = self.channel(target)
            channel.messages.append((source, message))
            for nick in list(channel.members):
                if nick == source:
                    continue
                client = self.clients.get(nick)
                if client is not None:
                    client.deliver(source, target, message)
        else:
            client = self.clients.get(target)
            if client is not None:
                client.deliver(source, target, message)


class IrcClientEngine:
    """Bot-side IRC: register, join, hand commands to a callback."""

    def __init__(
        self,
        send: Callable[[bytes], None],
        nick: str,
        channel: str,
        on_command: Callable[[str], None],
    ) -> None:
        self._send = send
        self.nick = nick
        self.channel = channel
        self.on_command = on_command
        self.registered = False
        self.joined = False
        self.reader = LineReader(bare_lf=True)
        self._line(f"NICK {nick}")
        self._line(f"USER {nick} 0 * :{nick}")

    def _line(self, text: str) -> None:
        self._send(text.encode("latin-1") + CRLF)

    def feed(self, data: bytes) -> None:
        for line in self.reader.feed(data):
            if line:
                self._reply(line.decode("latin-1"))

    def _reply(self, line: str) -> None:
        parts = line.split(" ")
        if len(parts) >= 2 and parts[1] == "001":
            self.registered = True
            self._line(f"JOIN {self.channel}")
        elif len(parts) >= 2 and parts[1] == "JOIN":
            self.joined = True
        elif len(parts) >= 2 and parts[1] == "332":
            topic = line.split(" :", 1)[-1]
            self.on_command(topic)
        elif len(parts) >= 2 and parts[1] == "PRIVMSG":
            message = line.split(" :", 1)[-1]
            self.on_command(message)
        elif parts[0] == "PING":
            token = line.split(" ", 1)[-1].lstrip(":")
            self._line(f"PONG :{token}")
