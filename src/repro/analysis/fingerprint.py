"""Network-level fingerprinting of a specimen's initial activity.

A fingerprint summarizes what a sample tried on the wire while fully
reflected: the (port, protocol) pairs it dialled and normalized
prefixes of its first payload bytes per service.  Identifiers that
vary per sample or per run — hex ids, counters — are masked, so two
executions of the same family converge on the same token set.

Classification is nearest-prototype by Jaccard similarity over the
token sets, with prototypes learned from a handful of ground-truth
executions per family.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

_HEX_RUN = re.compile(rb"[0-9a-f]{4,}")
_DIGIT_RUN = re.compile(rb"\d+")

TOKEN_LENGTH = 24


def normalize_payload(payload: bytes) -> bytes:
    """Mask volatile identifiers in a payload prefix."""
    prefix = payload[:TOKEN_LENGTH * 2]
    prefix = _HEX_RUN.sub(b"#", prefix)
    prefix = _DIGIT_RUN.sub(b"#", prefix)
    return prefix[:TOKEN_LENGTH]


class Fingerprint:
    """The token set describing one execution's initial activity."""

    __slots__ = ("ports", "tokens")

    def __init__(self, ports: FrozenSet[Tuple[int, str]],
                 tokens: FrozenSet[bytes]) -> None:
        self.ports = ports
        self.tokens = tokens

    @property
    def all_features(self) -> FrozenSet:
        return frozenset(self.ports) | frozenset(
            ("payload", token) for token in self.tokens
        )

    def similarity(self, other: "Fingerprint") -> float:
        """Jaccard similarity over the combined feature sets."""
        mine, theirs = self.all_features, other.all_features
        if not mine and not theirs:
            return 1.0
        union = mine | theirs
        if not union:
            return 0.0
        return len(mine & theirs) / len(union)

    def __repr__(self) -> str:
        return f"<Fingerprint ports={sorted(self.ports)} tokens={len(self.tokens)}>"


def fingerprint_from_sink(records: Iterable) -> Fingerprint:
    """Build a fingerprint from catch-all sink records (the reflected
    initial activity trace)."""
    ports = set()
    tokens = set()
    for record in records:
        ports.add((record.dst_port, record.proto))
        payload = bytes(record.payload)
        if payload:
            tokens.add(normalize_payload(payload))
    return Fingerprint(frozenset(ports), frozenset(tokens))


class FingerprintClassifier:
    """Nearest-prototype classifier over fingerprints."""

    def __init__(self, min_similarity: float = 0.2) -> None:
        self.min_similarity = min_similarity
        self._prototypes: Dict[str, List[Fingerprint]] = {}

    def train(self, family: str, fingerprint: Fingerprint) -> None:
        self._prototypes.setdefault(family, []).append(fingerprint)

    def classify(self, fingerprint: Fingerprint) -> Tuple[Optional[str], float]:
        """Returns (family, similarity); family is None below the
        confidence floor (an unknown specimen)."""
        best_family: Optional[str] = None
        best_score = 0.0
        for family, prototypes in self._prototypes.items():
            for prototype in prototypes:
                score = fingerprint.similarity(prototype)
                if score > best_score:
                    best_family, best_score = family, score
        if best_score < self.min_similarity:
            return None, best_score
        return best_family, best_score

    def confusion(
        self,
        labelled: Iterable[Tuple[str, Fingerprint]],
    ) -> Dict[Tuple[str, Optional[str]], int]:
        """Confusion counts over (true family, predicted family)."""
        table: Dict[Tuple[str, Optional[str]], int] = {}
        for truth, fingerprint in labelled:
            predicted, _ = self.classify(fingerprint)
            key = (truth, predicted)
            table[key] = table.get(key, 0) + 1
        return table
