"""Corpus store, shrinking minimizer, and replay-regression runner.

Every input that makes a parser misbehave is first *shrunk* (greedy
ddmin-style chunk removal while the misbehaviour reproduces) and then
*pinned* as ``<protocol>__<sha8>.bin`` in a corpus directory.  The
repository tracks such a directory under ``tests/fuzz_corpus/``;
``tests/test_fuzz_regressions.py`` replays it on every CI run, so a
crash found once can never quietly return.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, List, Tuple

from repro.fuzz.generators import DSL_TARGET, TARGETS, WORKER_FRAME_TARGET
from repro.net.errors import ParseError


def minimize(data: bytes, still_fails: Callable[[bytes], bool],
             max_rounds: int = 8) -> bytes:
    """Greedy shrink: drop chunks while ``still_fails`` keeps holding.

    Not a full ddmin — a few halving passes are enough to turn a
    multi-kilobyte mutated frame into a readable regression input, and
    determinism matters more here than minimality.
    """
    if not still_fails(data):
        return data
    current = data
    for _ in range(max_rounds):
        if len(current) <= 1:
            break
        chunk = max(1, len(current) // 4)
        shrunk = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate != current and still_fails(candidate):
                current = candidate
                shrunk = True
            else:
                start += chunk
        if not shrunk:
            break
    return current


class CorpusStore:
    """A directory of pinned fuzz inputs, named ``protocol__sha8.bin``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def add(self, protocol: str, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()[:8]
        path = os.path.join(self.directory, f"{protocol}__{digest}.bin")
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.write(data)
        return path

    def entries(self) -> List[Tuple[str, str, bytes]]:
        """(protocol, filename, data) triples in sorted filename order."""
        out = []
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".bin") or "__" not in filename:
                continue
            protocol = filename.split("__", 1)[0]
            with open(os.path.join(self.directory, filename), "rb") as handle:
                out.append((protocol, filename, handle.read()))
        return out


def replay_corpus(directory: str) -> Dict[str, object]:
    """Re-parse every pinned input; report anything escaping the
    ParseError taxonomy.  An empty ``escapes`` list means every
    historical crash stays fixed."""
    store = CorpusStore(directory)
    replayed = 0
    skipped: List[str] = []
    escapes: List[dict] = []
    targets = {**TARGETS, DSL_TARGET.name: DSL_TARGET,
               WORKER_FRAME_TARGET.name: WORKER_FRAME_TARGET}
    for protocol, filename, data in store.entries():
        target = targets.get(protocol)
        if target is None:
            skipped.append(filename)
            continue
        replayed += 1
        try:
            target.parse(data)
        except ParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - the regression signal
            escapes.append({
                "file": filename,
                "protocol": protocol,
                "exception": type(exc).__name__,
                "message": str(exc)[:200],
            })
    return {"replayed": replayed, "skipped": skipped, "escapes": escapes}


__all__ = ["CorpusStore", "minimize", "replay_corpus"]
