"""Operator CLI for the isolation verification plane.

Usage::

    python -m repro.verify certify [--scenario NAME] [--json] [--out P]
    python -m repro.verify check [--scenario NAME] [--json]
    python -m repro.verify quick

``certify`` compiles the golden-seed farm (or a named fault-matrix
scenario farm) into an isolation model, exhaustively explores it, and
prints the certificate — exit 0 when CONTAINED, 1 when LEAKY (the
minimal counterexample prints with the leaking (src-vlan, dst, proto)
path).

``check`` certifies and then cross-validates the certificate against
the same run's runtime evidence: journal coverage plus installed
flow-table coverage.  Exit 0 when both the certificate and the
coverage pass are clean.

``quick`` is the CI gate behind ``make verify-quick``: certify the
golden-seed farm twice, the Figure 6 Botfarm and one fault-matrix
scenario; assert every certificate is CONTAINED, that the two golden
runs produced the same certificate digest (the determinism claim,
checked) and that the Botfarm's model is exact (the policy library
publishes the tables it executes).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.verify.certificate import certify_farm, verify_digest
from repro.verify.runtime import check_farm, render_violations

QUICK_SCENARIO = "cs_crash"


def _build_farm(args):
    """The farm under verification: golden-seed by default, or one
    fault-matrix scenario farm."""
    if getattr(args, "scenario", None):
        from repro.experiments.fault_matrix import build_fault_farm

        return build_fault_farm(seed=args.seed, scenario=args.scenario,
                                duration=args.duration)
    from repro.obs.__main__ import golden_farm

    return golden_farm(seed=args.seed, duration=args.duration)


def _print_certificate(cert: dict, as_json: bool, out: Optional[str]) -> None:
    if as_json or out:
        text = json.dumps(cert, indent=2, sort_keys=True)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {out}")
            return
        print(text)
        return
    print(f"isolation certificate [{cert['result']}]")
    print(f"  schema           {cert['schema']}")
    print(f"  model digest     {cert['model_digest']}")
    print(f"  certificate      {cert['digest']}")
    print(f"  exact model      {cert['exact']}")
    print(f"  states explored  {cert['states_explored']}")
    print(f"  transitions      {cert['transitions']}")
    print(f"  world grants     {len(cert['grants'])}")
    for grant in cert["grants"]:
        ports = grant["ports"]
        span = (str(ports[0]) if ports[0] == ports[1]
                else f"{ports[0]}-{ports[1]}")
        print(f"    {grant['subfarm']} vlan={grant['vlan']} "
              f"{grant['direction']} dst={grant['dst']} "
              f"{grant['proto']}:{span} content={grant['content']} "
              f"-> {grant['verdict']} ({grant['grant_kind']})")
    print(f"  leak paths       {cert['leak_count']}")
    counterexample = cert.get("counterexample")
    if counterexample:
        path = counterexample["path"]
        print(f"  counterexample   {counterexample['kind']}: "
              f"subfarm={path['subfarm']} src_vlan={path['src_vlan']} "
              f"dst={path['dst']} proto={path['proto']} "
              f"ports={path['ports'][0]}-{path['ports'][1]}")
        for step in counterexample["trace"]:
            detail = ", ".join(f"{k}={v}" for k, v in step.items()
                               if k != "step")
            print(f"    -> {step['step']}  {detail}")


def _cmd_certify(args) -> int:
    farm = _build_farm(args)
    cert = certify_farm(farm, label=args.label)
    _print_certificate(cert, args.json, args.out)
    return 0 if cert["result"] == "CONTAINED" else 1


def _cmd_check(args) -> int:
    farm = _build_farm(args)
    cert = certify_farm(farm, label=args.label)
    journal = farm.journal_snapshot()
    report = check_farm(cert, farm)
    if args.json:
        print(json.dumps({"certificate": cert,
                          "coverage": report.to_dict()},
                         indent=2, sort_keys=True))
    else:
        _print_certificate(cert, False, None)
        print(render_violations(report, journal))
    clean = cert["result"] == "CONTAINED" and report.ok
    return 0 if clean else 1


def _cmd_quick(args) -> int:
    """CI gate: every farm of a fixed list CONTAINED, plus what each is
    on the list for."""
    from repro.experiments.fault_matrix import build_fault_farm
    from repro.experiments.figure7 import build_botfarm
    from repro.obs.__main__ import golden_farm

    failures: List[str] = []
    certs = []
    for label, build in (
            ("golden", golden_farm), ("golden", golden_farm),
            ("Figure 6 Botfarm", lambda: build_botfarm()[0]),
            (QUICK_SCENARIO, lambda: build_fault_farm(
                seed=args.seed, scenario=QUICK_SCENARIO))):
        print(f"verify-quick: certifying {label} ...")
        farm = build()
        cert = certify_farm(farm, label=label)
        certs.append(cert)
        print(f"  {cert['result']} exact={cert['exact']} "
              f"digest={cert['digest'][:16]}… grants={len(cert['grants'])} "
              f"states={cert['states_explored']}")
        if cert["result"] != "CONTAINED":
            failures.append(f"{label} certificate is LEAKY")
        if not verify_digest(cert):
            failures.append(f"{label} certificate self-digest does not "
                            "verify")
    golden_a, golden_b, botfarm, scenario = certs
    # The determinism claim, checked.
    if golden_a["digest"] != golden_b["digest"]:
        failures.append("certificate digest unstable across runs")
    # The policy library publishes the tables it executes.
    if not botfarm["exact"]:
        failures.append("Figure 6 Botfarm model is probed, not exact")
    # The proof against what the scenario's run (the last farm) did.
    report = check_farm(scenario, farm)
    print(f"  coverage {report.covered}/{report.checked} covered, "
          f"{len(report.violations)} violation(s)")
    if not report.ok:
        failures.append(f"runtime coverage violations in {QUICK_SCENARIO}")
        print(render_violations(report, farm.journal_snapshot()))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("verify-quick: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="machine-checked containment certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--duration", type=float, default=120.0)
        p.add_argument("--scenario",
                       help="certify a fault-matrix scenario farm "
                            "instead of the golden-seed farm")
        p.add_argument("--label", default="",
                       help="label recorded inside the certificate")
        p.add_argument("--json", action="store_true",
                       help="print the raw certificate JSON")

    p_certify = sub.add_parser(
        "certify", help="compile, explore, and print a certificate")
    common(p_certify)
    p_certify.add_argument("--out", metavar="PATH",
                           help="write the certificate JSON to a file")
    p_certify.set_defaults(func=_cmd_certify)

    p_check = sub.add_parser(
        "check", help="certify + cross-validate against runtime evidence")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_quick = sub.add_parser(
        "quick", help="CI gate: digest stability + scenario containment")
    p_quick.add_argument("--seed", type=int, default=11)
    p_quick.set_defaults(func=_cmd_quick)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
