"""§7.1 "Unclear phylogenies": fingerprint-based batch classification.

The batch setup: every sample runs briefly in a classification subfarm
whose policy reflects all outgoing activity to the catch-all sink
(auto-infection excepted); the sink's record of the initial activity
trace becomes the sample's network-level fingerprint.  A classifier
trained on a few ground-truth executions per family then labels the
batch — the approach GQ used on roughly 10,000 unique samples from
pay-per-install distribution servers.

The experiment also reproduces the split-personality observation: a
specimen that sometimes talks MegaD and sometimes Grum classifies
differently across reverted executions, and label noise shows up as
disagreement between AV labels and behavioural classes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.analysis.fingerprint import (
    Fingerprint,
    FingerprintClassifier,
    fingerprint_from_sink,
)
from repro.core.policy import Action, register_policy
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample, generate_corpus
from repro.policies.autoinfect import AutoInfectionPolicy
from repro.world.builder import ExternalWorld

DEFAULT_FAMILIES = ["rustock", "grum", "waledac", "megad", "clickbot"]


@register_policy
class ClassificationPolicy(AutoInfectionPolicy):
    """Reflect everything except the auto-infection flow."""

    name = "Classification"
    default = Action("reflect", "classification sweep", "sink")


def fingerprint_sample(sample: Sample, duration: float = 180.0,
                       seed: int = 0) -> Fingerprint:
    """Run one sample in a fresh classification subfarm and return the
    fingerprint of its reflected initial activity."""
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("classify")
    # DNS must resolve C&C names or HTTP-based families never emit
    # their distinctive request — the world supplies the names, but no
    # actual C&C servers are needed (everything reflects anyway).
    world = ExternalWorld(farm)
    for family in DEFAULT_FAMILIES:
        domain = {
            "rustock": "rustock-cc.example",
            "grum": "grum-cc.example",
            "waledac": "waledac-cc.example",
            "megad": "megad-ctrl.example",
            "clickbot": "clickbot-cc.example",
        }[family]
        world.dns.add_a(domain, world.allocate_ip("198.51.100.0"))

    sink = sub.add_catchall_sink()
    policy = ClassificationPolicy()
    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, sample)
    farm.run(until=duration)
    return fingerprint_from_sink(sink.records)


class ClassificationResult:
    def __init__(self) -> None:
        self.total = 0
        self.correct = 0
        self.unknown = 0
        self.label_disagreements = 0
        self.confusion: Dict[Tuple[str, Optional[str]], int] = {}

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def __repr__(self) -> str:
        return (
            f"<Classification {self.correct}/{self.total} correct, "
            f"{self.unknown} unknown, "
            f"{self.label_disagreements} label disagreements>"
        )


def run_classification(
    corpus_size: int = 60,
    families: Optional[List[str]] = None,
    label_noise: float = 0.15,
    duration: float = 180.0,
    seed: int = 3,
) -> ClassificationResult:
    """Train on one clean execution per family, then classify a
    synthetic pay-per-install corpus."""
    families = families or DEFAULT_FAMILIES
    rng = random.Random(seed)

    classifier = FingerprintClassifier()
    for index, family in enumerate(families):
        prototype = fingerprint_sample(Sample(family), duration,
                                       seed=1000 + index)
        classifier.train(family, prototype)

    corpus = generate_corpus(corpus_size, rng, families, label_noise)
    result = ClassificationResult()
    for index, sample in enumerate(corpus):
        fingerprint = fingerprint_sample(sample, duration,
                                         seed=2000 + index)
        predicted, _score = classifier.classify(fingerprint)
        result.total += 1
        key = (sample.family, predicted)
        result.confusion[key] = result.confusion.get(key, 0) + 1
        if predicted is None:
            result.unknown += 1
        elif predicted == sample.family:
            result.correct += 1
        if predicted is not None and predicted != sample.label:
            result.label_disagreements += 1
    return result


def run_split_personality(executions: int = 8, duration: float = 180.0,
                          seed: int = 9) -> List[Optional[str]]:
    """Fingerprint the same split-personality binary across reverted
    executions; returns the per-execution classifications."""
    classifier = FingerprintClassifier()
    for index, family in enumerate(("megad", "grum")):
        classifier.train(family, fingerprint_sample(
            Sample(family), duration, seed=3000 + index))

    sample = Sample("split-personality", label="megad")
    outcomes: List[Optional[str]] = []
    for execution in range(executions):
        fingerprint = fingerprint_sample(sample, duration,
                                         seed=4000 + execution)
        predicted, _ = classifier.classify(fingerprint)
        outcomes.append(predicted)
    return outcomes


def run_study(corpus_size: int = 120, executions: int = 10,
              duration: float = 150.0):
    """The §7.1 artefact: the batch classification plus the
    split-personality executions."""
    return (run_classification(corpus_size=corpus_size, duration=duration),
            run_split_personality(executions=executions, duration=duration))


def render(study) -> str:
    classification, split = study
    lines = [
        "Fingerprint-based batch classification (§7.1; the paper "
        "classified ~10,000 samples this way)",
        "",
        f"corpus size          : {classification.total}",
        f"correctly classified : {classification.correct} "
        f"({classification.accuracy:.1%})",
        f"unknown              : {classification.unknown}",
        f"AV-label disagreement: {classification.label_disagreements} "
        "(split personalities / mislabels surfaced)",
        "",
        "Confusion (true -> predicted):",
    ]
    for (truth, predicted), count in sorted(classification.confusion.items()):
        lines.append(f"    {truth:<18} -> {str(predicted):<18} {count}")
    lines.append("")
    lines.append(
        "Split-personality binary across reverted executions "
        f"(AV label 'megad'): {split}"
    )
    return "\n".join(lines)
