"""The one manifest of pins, and the one command that rewrites them.

Every value the tree pins is produced by code this manifest names:

``router``  ``router_wire.json`` (the scripted scenarios of
            ``tests/test_fastpath.py`` and ``tests/test_flowtable.py``)
            and ``router_scripts.json`` (the seeded scripts of
            :mod:`repro.fuzz.router`);
``policy``  ``policy_decisions.json``, what every library and
            experiment policy answers (``tests/test_policy_decisions.py``);
``obs``     ``obs_parity.json``, the telemetry and journal snapshots of
            three observed runs (``tests/test_obs_parity.py``);
``carriers`` ``carriers.json``, the SYN/FIN/payload frames and flow
            logs of three small farms (``tests/test_wire_carriers.py``);
``lines``   ``lines.json``, what the SMTP, IRC and FTP servers send and
            keep for their fuzz generators' inputs, fed whole and in
            7-byte chunks, leaving out inputs with a line past the
            ``MAX_LINE`` bound of :mod:`repro.net.lines`
            (``tests/test_line_framing.py``);
``farm``    ``farm_digests.json``, the seed farm's digest and journal
            digest, the 8-shard campaign digest and the 14 fault-matrix
            cell digests (:data:`tests.golden.FARM_PINS`);
``verify``  ``certificates.json``, the certificate digest of every farm
            of the certificate corpus (``tests/test_certificate_corpus.py``);
``fuzz``    ``FUZZ_quick.json``, the quick fuzz smoke's summary
            (:func:`repro.fuzz.runner.quick_summary`);
``paper``   ``benchmarks/output/*``, Table 1, Figures 1-7 and the case
            studies (every non-sweep row of
            :data:`repro.experiments.registry.ARTEFACTS`).

::

    PYTHONPATH=src python -m tests.golden.regen [pin ...]

With no pin named it regenerates every one.  It prints one ``pin: old ->
new`` line per pinned value that moved and rewrites only the files that
hold one, so on an unchanged tree it prints no moved pin and leaves the
worktree clean.  A pin is a leaf of a digest file
(``FUZZ_quick.json:farm.isolate.digest``), or a whole corpus or
artefact by its sha256; a ``recorded_from`` commit is provenance, not
a pin.

Run it when a change alters behaviour on purpose, and review the diff.
A refactor does the opposite: it records the file that pins it from
its *parent* commit (run this there, or in a clone of it) before
touching the code, and never again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

from repro.experiments.registry import ARTEFACTS
from repro.fuzz.router import run_script
from repro.fuzz.runner import PINNED_NAME, quick_summary
from tests import (test_certificate_corpus, test_fastpath, test_flowtable,
                   test_line_framing, test_obs_parity, test_policy_decisions,
                   test_wire_carriers)
from tests.golden import (FARM_PATH, FARM_PINS, GOLDEN_PATH, SCRIPTS_PATH,
                          script_digests, wire_digest)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Pinned as one value each: a change anywhere in them is one moved pin.
CORPORA = (test_policy_decisions.CORPUS_PATH, test_obs_parity.CORPUS_PATH)


def _commit() -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True).stdout.strip()


def _digest_file(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _corpus(record) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"


def router() -> dict:
    scripts = {**test_fastpath.GOLDEN, **test_flowtable.GOLDEN}
    fuzzed = [wire_digest(run_script(seed))
              for seed in range(len(script_digests()))]
    return {
        GOLDEN_PATH: _digest_file(
            {name: wire_digest(run()) for name, run in scripts.items()}),
        SCRIPTS_PATH: json.dumps({"recorded_from": _commit(),
                                  "digests": fuzzed}, indent=0) + "\n",
    }


MANIFEST = {
    "router": router,
    "policy": lambda: {test_policy_decisions.CORPUS_PATH:
                       _corpus(test_policy_decisions.record())},
    "obs": lambda: {test_obs_parity.CORPUS_PATH:
                    _corpus(test_obs_parity.record())},
    "carriers": lambda: {test_wire_carriers.CORPUS_PATH: _digest_file(
        test_wire_carriers.record())},
    "lines": lambda: {test_line_framing.CORPUS_PATH: _digest_file(
        test_line_framing.record())},
    "farm": lambda: {FARM_PATH: _digest_file(
        {name: produce() for name, produce in FARM_PINS.items()})},
    "verify": lambda: {test_certificate_corpus.CORPUS_PATH: _digest_file(
        {"recorded_from": _commit(),
         "certificates": test_certificate_corpus.record()})},
    "fuzz": lambda: {os.path.join(ROOT, PINNED_NAME):
                     _digest_file(quick_summary())},
    "paper": lambda: {
        os.path.join(ROOT, "benchmarks", "output", row.filename):
        row.render(row.run(**row.defaults()))
        for row in ARTEFACTS.values() if not row.sweep},
}


def _leaves(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {".".join(map(str, path)): value}
    found = {}
    for key, item in items:
        if key != "recorded_from":
            found.update(_leaves(item, path + (key,)))
    return found


def pins(path: str, text) -> dict:
    """The pinned values in one file's ``text`` (None: no file), by
    name."""
    if text is None:
        return {}
    name = os.path.relpath(path, ROOT)
    if path.endswith(".json"):
        document = json.loads(text)
        if path not in CORPORA:
            return {f"{name}:{key}": value
                    for key, value in _leaves(document).items()}
        document.pop("recorded_from", None)
        text = json.dumps(document, sort_keys=True)
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _short(value) -> str:
    text = "(none)" if value is None else str(value)
    return text if len(text) <= 16 else text[:12] + "..."


def regen(names) -> int:
    """Regenerate the named pins; print and write what moved.  Returns
    how many pinned values moved."""
    moved = 0
    for name in names:
        for path, text in MANIFEST[name]().items():
            old_text = None
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as handle:
                    old_text = handle.read()
            old, new = pins(path, old_text), pins(path, text)
            changed = sorted(key for key in old.keys() | new.keys()
                             if old.get(key) != new.get(key))
            for key in changed:
                print(f"{key}: {_short(old.get(key))} -> "
                      f"{_short(new.get(key))}")
            if changed:
                with open(path, "w", encoding="utf-8",
                          newline="") as handle:
                    handle.write(text)
            moved += len(changed)
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.regen",
        description="rewrite the tree's pins; print each one that moved")
    parser.add_argument("names", nargs="*", metavar="pin",
                        help=f"any of {', '.join(MANIFEST)} (default: all)")
    names = parser.parse_args(argv).names or list(MANIFEST)
    unknown = [name for name in names if name not in MANIFEST]
    if unknown:
        parser.error(f"unknown pin {', '.join(unknown)} "
                     f"(choose from {', '.join(MANIFEST)})")
    moved = regen(names)
    print(f"{moved} pinned value(s) moved" if moved else "no pin moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
