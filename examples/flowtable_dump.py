#!/usr/bin/env python3
"""Match-action flow tables: dump the live rules of a running farm.

Every subfarm router compiles post-verdict flows into an exact-match
flow table (``docs/PERFORMANCE.md``).  Because the rules are pure data
— not closures — the table can be inspected like a switch's flow dump:

1. Build a farm with an idle timeout on the tables, so rules age out
   on the virtual clock.
2. Run one inmate through a talk / go-quiet / talk-again script: the
   quiet gap outlives the idle timeout, so its rules are evicted and
   then re-installed when the conversation resumes.
3. Print each table's statistics and a per-entry dump (match, action,
   hit counts, timeouts), the way ``ovs-ofctl dump-flows`` would.

Run:  python examples/flowtable_dump.py
"""

from repro import Farm, FarmConfig
from repro.core.policy import AllowAll
from repro.net.addresses import IPv4Address
from repro.net.http import echo
from repro.services.dhcp import DhcpClient

ECHO_IP = "203.0.113.80"
ECHO_PORT = 7


def chatty_image(host):
    """Inmate image: one long-lived connection that talks, goes quiet
    long enough for its flow-table rules to idle out, then resumes."""
    def start(configured_host):
        def connect():
            conn = configured_host.tcp.connect(
                IPv4Address(ECHO_IP), ECHO_PORT)

            def burst(tag, count):
                for index in range(count):
                    configured_host.sim.schedule(
                        index * 0.5, conn.send, b"%s-%d" % (tag, index))

            conn.on_established = lambda c: burst(b"early", 8)
            # Quiet for ~50s after the early burst: with a 20s idle
            # timeout the rules age out mid-conversation, then
            # re-install when this resumes.
            configured_host.sim.schedule(55.0, burst, b"late", 8)

        configured_host.sim.schedule(1.0, connect)

    DhcpClient(host, on_configured=start).start()


def dump(subfarm):
    table = subfarm.router.flowtable
    stats = table.stats()
    timeouts = stats["timeout_evictions"]
    print(f"\nSubfarm '{subfarm.name}' flow table:")
    print(f"  occupancy={stats['occupancy']} hits={stats['hits']} "
          f"misses={stats['misses']} installs={stats['installs']}")
    print(f"  evictions={stats['evictions']} retired={stats['retired']} "
          f"idle timeouts={timeouts['idle']} "
          f"hard timeouts={timeouts['hard']}")
    for entry in table.snapshot():
        match = entry["match"]
        where = (f"{IPv4Address(match['src'])}:{match['sport']} -> "
                 f"{IPv4Address(match['dst'])}:{match['dport']}")
        idle = entry["idle_timeout"]
        hard = entry["hard_expires_at"]
        print(f"    {entry['action']:<9} vlan={entry['vlan']} "
              f"verdict={entry['verdict']:<8} hits={entry['hits']:<4} "
              f"emit={entry['emit']:<8} {where}")
        print(f"      installed_at={entry['installed_at']:.3f} "
              f"idle_timeout={'-' if idle is None else idle} "
              f"hard_expires_at="
              f"{'-' if hard is None else f'{hard:.3f}'}")


def main():
    farm = Farm(FarmConfig(seed=11, flowtable_idle_timeout=20.0))
    sub = farm.create_subfarm("dump-demo")
    sub.set_default_policy(AllowAll())
    sub.add_catchall_sink()
    echo(farm.add_external_host("echo", ECHO_IP), ECHO_PORT)
    sub.create_inmate(image_factory=chatty_image)

    # Mid-run dump: the early burst's rules are live.
    farm.run(until=40.0)
    print("t=40: after the early burst")
    dump(sub)

    # Past the quiet gap: the idle timeout evicted, the late burst
    # re-missed and re-installed fresh rules.
    farm.run(until=95.0)
    print("\nt=95: after idling out and resuming")
    dump(sub)


if __name__ == "__main__":
    main()
