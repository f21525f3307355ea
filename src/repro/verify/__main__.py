"""Operator CLI for the isolation verification plane.

Usage::

    python -m repro.verify certify [--scenario NAME] [--json] [--out P]
    python -m repro.verify check [--scenario NAME] [--json]
    python -m repro.verify quick

``certify`` compiles the golden-seed farm (or a named fault-matrix
scenario farm) into an isolation model, classifies every abstract
flow once, and prints the certificate — exit 0 when CONTAINED, 1 when
LEAKY (the minimal counterexample prints with the leaking (src-vlan,
dst, proto) path).

``check`` certifies and then cross-validates the certificate against
the same run's wire: every frame an inmate sent upstream must follow
a flow-log line that lets it out, covered by a grant at its port.
Exit 0 when both the certificate and the wire check are clean.

``quick`` is the CI gate behind ``make verify-quick``: certify the
golden-seed farm twice, the Figure 6 Botfarm, a worm honeyfarm and one
fault-matrix scenario; assert every certificate is CONTAINED, that the
two golden runs produced the same certificate digest (the determinism
claim, checked), that every registered policy class compiles a model
(every policy declares), that the honeyfarm's model redirects into
the farm (a target picked per flow is still a published cell), and
that what the golden run and the scenario's run put on the wire is
covered by their certificates, each run's check checking something.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.verify.certificate import (certify_farm, render_certificate,
                                      verify_digest)
from repro.verify.model import compile_farm, compile_policy
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
    for line in render_certificate(cert):
        print(f"  {line}" if line else "")


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


def _worm_farm():
    from repro.farm import Farm
    from repro.policies.worm import WormHoneyfarmPolicy

    farm = Farm()
    sub = farm.create_subfarm("honeyfarm")
    sub.add_catchall_sink()
    sub.set_default_policy(WormHoneyfarmPolicy())
    return farm


def _cmd_quick(args) -> int:
    """CI gate: every farm of a fixed list CONTAINED, plus what each is
    on the list for."""
    import repro.baselines  # noqa: F401 - registers the baselines
    import repro.policies  # noqa: F401 - registers the library
    from repro.core.policy import POLICY_REGISTRY
    from repro.experiments.fault_matrix import build_fault_farm
    from repro.experiments.figure7 import build_botfarm
    from repro.obs.__main__ import golden_farm

    failures: List[str] = []
    certs, farms = [], []
    for label, build in (
            ("golden", golden_farm), ("golden", golden_farm),
            ("Figure 6 Botfarm", lambda: build_botfarm()[0]),
            ("WormHoneyfarm", _worm_farm),
            (QUICK_SCENARIO, lambda: build_fault_farm(
                seed=args.seed, scenario=QUICK_SCENARIO))):
        print(f"verify-quick: certifying {label} ...")
        farm = build()
        cert = certify_farm(farm, label=label)
        certs.append(cert)
        farms.append(farm)
        print(f"  {cert['result']} "
              f"digest={cert['digest'][:16]}… grants={len(cert['grants'])} "
              f"states={cert['states_explored']}")
        if cert["result"] != "CONTAINED":
            failures.append(f"{label} certificate is LEAKY")
        if not verify_digest(cert):
            failures.append(f"{label} certificate self-digest does not "
                            "verify")
    golden_a, golden_b, _, _, scenario = certs
    # The determinism claim, checked.
    if golden_a["digest"] != golden_b["digest"]:
        failures.append("certificate digest unstable across runs")
    # Every policy declares: each registered class compiles a model,
    # and a redirect to a fresh inmate is a published in-farm cell.
    for name, cls in sorted(POLICY_REGISTRY.items()):
        try:
            compile_policy(cls())
        except ValueError as error:     # the rule list's PolicyError
            failures.append(f"policy {name} compiles no model: {error}")
    if not any(cell.verdict == "REDIRECT" and cell.target_class == "farm"
               for _lo, _hi, model in compile_farm(
                   farms[3]).subfarms[0].assignments
               for cell in model.outcomes):
        failures.append("WormHoneyfarm model has no in-farm REDIRECT cell")
    # The proofs against what the runs put on the wire; a run that
    # put nothing there would pass vacuously.
    for label, cert, run in (("golden", golden_a, farms[0]),
                             (QUICK_SCENARIO, scenario, farm)):
        report = check_farm(cert, run)
        print(f"  {label} coverage {report.covered}/{report.checked} "
              f"covered, {len(report.violations)} violation(s)")
        if not report.ok:
            failures.append(f"runtime coverage violations in {label}")
            print(render_violations(report, run.journal_snapshot()))
        if not report.checked:
            failures.append(f"{label} run left no runtime evidence")

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
        "certify", help="compile, classify, and print a certificate")
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
