"""Analysis utilities: network-level fingerprinting and classification.

§7.1 "Unclear phylogenies": third-party family labels are unreliable,
so GQ's batch-processing setup reflects all outgoing activity to the
catch-all sink and applies network-level fingerprinting to the
samples' initial activity trace — the approach used to classify
roughly 10,000 unique pay-per-install samples.
"""

from repro.analysis.fingerprint import (
    Fingerprint,
    FingerprintClassifier,
    fingerprint_from_sink,
)

__all__ = [
    "Fingerprint",
    "FingerprintClassifier",
    "fingerprint_from_sink",
]
