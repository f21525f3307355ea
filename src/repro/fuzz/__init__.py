"""repro.fuzz — the deterministic hostile-input fuzz plane.

GQ's inmates are live malware: every parser between them and the farm
fabric reads attacker-controlled bytes.  The containment story
therefore needs an adversary of its own, and this package is it — a
seed-driven fuzzing subsystem with four pieces:

* :mod:`repro.fuzz.mutate` — a deterministic mutation engine (bit
  flips, truncations, lying length fields, duplicated/overlapping
  slices, encapsulation padding) driven by one ``random.Random`` seed,
  so a corpus digest is reproducible byte-for-byte across runs.
* :mod:`repro.fuzz.generators` — grammar-aware malformed-input
  generators for every protocol the farm parses (DNS, SMTP, HTTP,
  IRC, FTP, SOCKS, DHCP, ARP, GRE, TCP options, Ethernet/IPv4 framing,
  the shim protocol itself, policy programs, the campaign
  transport's worker frames, fault plans, farm configs, isolation
  certificates and shard specs — the last four broken by one mutator
  drawn from their :mod:`repro.shape` tables),
  registered as named :class:`~repro.fuzz.generators.FuzzTarget`
  entries.
* :mod:`repro.fuzz.corpus` + :mod:`repro.fuzz.runner` — a corpus
  store with a shrinking minimizer, a replay-regression runner (every
  crash found becomes a pinned test under ``tests/fuzz_corpus/``), and
  the parser- and farm-level fuzz loops.
* :mod:`repro.fuzz.router` — seeded random scripts against a bare
  subfarm router, digested: the differential net a datapath refactor
  is held to (``tests/golden/router_scripts.json``).

The contract being enforced (docs/HARDENING.md): a parser given
hostile bytes either succeeds or raises
:class:`~repro.net.errors.ParseError`.  Any other exception escaping a
parser is by definition a bug, and the farm-level loop additionally
asserts that the gateway's malice barrier keeps the event loop alive
no matter what arrives on the trunk.

Virtual-clock safety: nothing in this package reads the wall clock or
global RNG state — all randomness flows from the caller's seed, so
``python -m repro.fuzz --quick`` produces a byte-identical corpus
digest on every machine (pinned in ``FUZZ_quick.json``).
"""

from repro.fuzz.corpus import CorpusStore, minimize, replay_corpus
from repro.fuzz.generators import SOLO_TARGETS, TARGETS, FuzzTarget
from repro.fuzz.mutate import MutationEngine
from repro.fuzz.runner import (
    fuzz_farm,
    fuzz_parsers,
    fuzz_target,
    run_quick,
)

__all__ = [
    "CorpusStore",
    "FuzzTarget",
    "MutationEngine",
    "SOLO_TARGETS",
    "TARGETS",
    "fuzz_farm",
    "fuzz_parsers",
    "fuzz_target",
    "minimize",
    "replay_corpus",
    "run_quick",
]
