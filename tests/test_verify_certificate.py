"""Certificates: containment proofs, counterexamples, digest
stability, tamper detection, and order-independent campaign merges.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import DslPolicy
from repro.core.policy import AllowAll, DefaultDeny
from repro.farm import Farm, FarmConfig
from repro.verify import (
    certify_farm,
    merge_certificates,
    verify_digest,
)

pytestmark = pytest.mark.integration


def _farm(policy=None, seed=7, name="c", **config):
    farm = Farm(FarmConfig(seed=seed, **config))
    sub = farm.create_subfarm(name)
    sub.set_default_policy(policy or AllowAll())
    farm.run(until=1.0)
    return farm


class TestContainedCertificates:
    def test_allow_all_is_contained_with_grants(self):
        cert = certify_farm(_farm(), label="allow")
        assert cert["result"] == "CONTAINED"
        assert cert["leak_count"] == 0
        assert cert["counterexample"] is None
        assert cert["schema"] == "gq.verify/2"
        assert cert["grants"]
        assert verify_digest(cert)

    def test_default_deny_grants_nothing(self):
        cert = certify_farm(_farm(DefaultDeny()), label="deny")
        assert cert["result"] == "CONTAINED"
        assert cert["grants"] == []

    def test_digest_stable_across_runs(self):
        a = certify_farm(_farm(), label="x")
        b = certify_farm(_farm(), label="x")
        assert a["digest"] == b["digest"]
        assert a["model_digest"] == b["model_digest"]

    def test_tampered_certificate_detected(self):
        cert = certify_farm(_farm(), label="t")
        assert verify_digest(cert)
        cert["leak_count"] = 99
        assert not verify_digest(cert)


class TestCounterexamples:
    def test_redirect_to_world_is_a_leak(self):
        policy = DslPolicy(
            "port 80/tcp -> redirect 203.0.113.99\ndefault -> drop\n")
        cert = certify_farm(_farm(policy), label="leaky")
        assert cert["result"] == "LEAKY"
        counterexample = cert["counterexample"]
        assert counterexample["kind"] == "redirect-to-world"
        path = counterexample["path"]
        # The minimal counterexample names the leaking
        # (src-vlan, dst, proto) path.
        assert path["src_vlan"] == "*"
        assert path["dst"] == "203.0.113.99"
        assert path["proto"] == "tcp"
        assert path["ports"] == [80, 80]
        assert any(step["step"] == "emit.upstream"
                   for step in counterexample["trace"])

    def test_grant_outside_allow_spec_is_a_leak(self):
        # Intent-violation check: the policy forwards ports 20-30 but
        # the operator only meant to allow port 80.
        policy = DslPolicy("port 20-30/tcp -> forward\ndefault -> drop\n")
        allow = [{"proto": "tcp", "port_lo": 80, "port_hi": 80}]
        cert = certify_farm(_farm(policy), label="wide", allow=allow)
        assert cert["result"] == "LEAKY"
        assert cert["counterexample"]["kind"] == "unexpected-grant"
        assert cert["counterexample"]["path"]["ports"] == [20, 30]
        assert cert["allow"] == allow
        # The same policy under a covering allow-spec is clean.
        covering = [{"proto": "tcp", "port_lo": 0, "port_hi": 65535}]
        assert certify_farm(_farm(policy), label="wide",
                            allow=covering)["result"] == "CONTAINED"

    def test_fail_open_pending_policy_is_a_leak(self):
        plan = {"specs": [{"kind": "shim_partition",
                           "start": 10.0, "end": 40.0}]}
        open_cert = certify_farm(
            _farm(DefaultDeny(), fault_plan=plan, verdict_deadline=5.0,
                  pending_policy="forward"),
            label="open")
        assert open_cert["result"] == "LEAKY"
        counterexample = open_cert["counterexample"]
        assert counterexample["kind"] == "pending-forward"
        assert counterexample["path"]["dst"] == "world"
        steps = [step["step"] for step in counterexample["trace"]]
        assert "fault.window" in steps
        assert "failover.pending" in steps
        # Fail-closed pending policy: same plan, no leak.
        closed_cert = certify_farm(
            _farm(DefaultDeny(), fault_plan=plan, verdict_deadline=5.0,
                  pending_policy="drop"),
            label="closed")
        assert closed_cert["result"] == "CONTAINED"


class TestCampaignMerge:
    def test_merge_is_order_independent(self):
        a = certify_farm(_farm(seed=1, name="a"), label="a")
        b = certify_farm(_farm(seed=2, name="b"), label="b")
        c = certify_farm(_farm(DefaultDeny(), seed=3, name="c"), label="c")
        forward = merge_certificates([a, b, c], label="camp")
        backward = merge_certificates([c, b, a], label="camp")
        assert forward["digest"] == backward["digest"]
        assert forward["schema"] == "gq.verify.campaign/2"
        assert forward["result"] == "CONTAINED"
        assert [shard["label"] for shard in forward["shards"]] \
            == ["a", "b", "c"]
        assert verify_digest(forward)

    def test_merge_dedups_identical_grants(self):
        a = certify_farm(_farm(seed=1, name="same"), label="s1")
        b = certify_farm(_farm(seed=1, name="same"), label="s2")
        merged = merge_certificates([a, b], label="dedup")
        assert len(merged["grants"]) == len(a["grants"])

    def test_merge_propagates_leaks(self):
        clean = certify_farm(_farm(seed=1, name="ok"), label="ok")
        policy = DslPolicy(
            "port 80/tcp -> redirect 203.0.113.99\ndefault -> drop\n")
        leaky = certify_farm(_farm(policy, seed=2, name="bad"),
                             label="bad")
        merged = merge_certificates([clean, leaky], label="mixed")
        assert merged["result"] == "LEAKY"
        assert merged["leak_count"] == leaky["leak_count"]
        assert merged["counterexample"] == leaky["counterexample"]

    def test_merge_of_nothing_is_none(self):
        assert merge_certificates([]) is None
        assert merge_certificates([None]) is None


class TestSerialParallelParity:
    def test_campaign_certificate_parity(self):
        """A fault-matrix campaign run serially and with two workers
        merges to the same campaign certificate."""
        from repro.experiments.fault_matrix import run_matrix

        serial = run_matrix(scenarios=["baseline"], seeds=[11, 12],
                            subfarms=1, inmates=2, rounds=6, workers=1)
        parallel = run_matrix(scenarios=["baseline"], seeds=[11, 12],
                              subfarms=1, inmates=2, rounds=6, workers=2)
        cert_serial = serial.merged["certificate"]
        cert_parallel = parallel.merged["certificate"]
        assert cert_serial is not None
        assert cert_serial["digest"] == cert_parallel["digest"]
        assert cert_serial["result"] == "CONTAINED"

    def test_matrix_summary_reads_the_merged_certificate(self):
        """The matrix summary reports the campaign certificate the
        campaign merge made, under the campaign's name."""
        from repro.experiments.fault_matrix import run_matrix, summarize

        result = run_matrix(scenarios=["baseline", "cs_crash"], seeds=[11],
                            subfarms=1, inmates=2, rounds=6)
        summary = summarize(result)
        assert summary["certificate"] == result.merged["certificate"]
        assert summary["certificate"]["label"] == "fault-matrix"
        assert len(summary["certificate"]["shards"]) == 2
