"""``python -m repro.experiments`` — regenerate or verify an artefact.

One subcommand per row of :data:`repro.experiments.registry.ARTEFACTS`,
each taking exactly the parameters its row declares, plus ``paper``
(every artefact tracked under ``benchmarks/output/``, at the row's
defaults)::

    python -m repro.experiments list
    python -m repro.experiments paper --check benchmarks/output
    python -m repro.experiments table1-worms --out benchmarks/output
    python -m repro.experiments fig7-report --duration 86400 --send-interval 4
    python -m repro.experiments gateway-load-sweep --workers 4 --seeds 0..7
    python -m repro.experiments fault-matrix --quick --workers 2

Without a path argument the rendered artefact — the paper's table as
text, a sweep's summary as JSON — goes to stdout.  ``--out DIR`` writes
it to ``DIR/<file>``; ``--check DIR`` byte-compares it against that
file, prints a unified diff and exits 1 on drift.  A row that reports
violations (``fault-matrix``) exits 1 when there are any.

Sweeps fan out over independent whole-farm runs: ``--workers N``
shards across a spawn-safe worker pool, ``--hosts h1:9000,h2:9000``
dispatches to running ``python -m repro.parallel.worker`` agents
(docs/PARALLELISM.md).  A campaign summary carries the merged
telemetry snapshot and — with ``streaming-farm --journal`` — the merged
decision journal; ``python -m repro.obs`` reads both from the file
``--out`` writes.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
from typing import List, Optional

from repro.experiments.registry import ARTEFACTS, Artefact, Param, parse_seeds

__all__ = ["build_parser", "main", "parse_seeds"]

_HELP = {
    "workers": "worker processes (1 = serial in-process)",
    "count": "shards when --seeds is not given",
    "seed": "base seed",
    "duration": "virtual seconds per farm run",
    "journal": "turn shard journaling on; the summary then carries the "
               "merged decision journal",
    "quick": "three scenarios and a same-cell determinism replay "
             "(make chaos-quick)",
}


def _add_paths(cmd: argparse.ArgumentParser) -> None:
    paths = cmd.add_mutually_exclusive_group()
    paths.add_argument("--out", metavar="DIR",
                       help="write the rendered artefact into DIR")
    paths.add_argument("--check", metavar="DIR",
                       help="byte-compare against the file in DIR; print "
                            "a unified diff and exit 1 on drift")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list what can be regenerated")
    _add_paths(sub.add_parser(
        "paper", help="every artefact tracked under benchmarks/output/"))
    for row in ARTEFACTS.values():
        # No prefix matching: ``--inmates`` is not ``--inmates-per``.
        cmd = sub.add_parser(row.id, help=f"{row.paper}: {row.help}",
                             allow_abbrev=False)
        for name, default in row.params.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(default, Param):
                cmd.add_argument(flag, type=default.type, default=None,
                                 metavar=default.metavar, help=default.help)
            elif default is False:
                cmd.add_argument(flag, action="store_true",
                                 help=_HELP.get(name))
            else:
                cmd.add_argument(
                    flag, type=type(default), default=default,
                    help=f"{_HELP.get(name, name)} (default {default})")
        _add_paths(cmd)
    return parser


def _deliver(row: Artefact, text: str, args) -> int:
    """Print, write or check one rendered artefact; 1 on drift."""
    if args.out:
        path = pathlib.Path(args.out) / row.filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        print(f"wrote {path}", file=sys.stderr)
    elif args.check:
        path = pathlib.Path(args.check) / row.filename
        tracked = path.read_bytes() if path.exists() else b""
        if tracked != text.encode("utf-8"):
            for line in difflib.unified_diff(
                    tracked.decode("utf-8", "replace")
                           .splitlines(keepends=True),
                    text.splitlines(keepends=True),
                    fromfile=str(path), tofile=f"{row.id} (regenerated)"):
                sys.stdout.write(line if line.endswith("\n")
                                 else line + "\n")
            return 1
        print(f"ok {path}", file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        for row in ARTEFACTS.values():
            print(f"{row.id:<22} {row.paper:<20} {row.help}")
        return 0
    if args.command == "paper":
        runs = [(row, row.defaults()) for row in ARTEFACTS.values()
                if not row.sweep]
    else:
        row = ARTEFACTS[args.command]
        runs = [(row, {name: getattr(args, name) for name in row.params})]
    status = 0
    for row, params in runs:
        result = row.run(**params)
        status |= _deliver(row, row.render(result), args)
        violations = row.violations(result) if row.violations else []
        if violations:
            print(f"{row.id}: {len(violations)} violation(s)",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
