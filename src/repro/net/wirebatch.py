"""Placeholders for the retired struct-of-arrays datapath.

These names exist for the layer ledger's tracer only
(``benchmarks/ledger/tracer.py`` wraps them through each class's
``__dict__``); ROADMAP direction 1(e) deletes them.  Nothing in the
farm calls them, and each raises if anything does.
"""

from repro.net.link import retired


class WireBatch:
    append_tcp = append_udp = append_packet = materialize = retired


class BatchOutput:
    append_run = serialize = retired
