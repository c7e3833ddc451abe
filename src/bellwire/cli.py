"""Command-line surface: reproduction experiments, property-test
campaigns, and single-shot evaluations with machine-checkable
certificates.

Exit status is 0 iff every check passed; degenerate cases (such as the
vanishing-divergence point of the doubling family) are reported
distinctly and do not fail the run. All output is deterministic for a
fixed command line, including seeds, and a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import jsonio
from .behaviors import (
    DEFAULT_VERTEX_CAP,
    Behavior,
    Scenario,
    _index,
    doubling_pair_first,
    doubling_pair_second,
    pr_box,
    tsirelson_four_setting,
    white_noise,
)
from .divergence import behavior_re
from .errors import BellwireError, ParameterOutOfRange
from .geometry import is_local, is_no_signaling, random_local_behavior, random_ns_behavior
from .monotones import (
    DEFAULT_TOL,
    QUANTIFIERS,
    AuditRow,
    convexity_audit,
    evaluate_quantifier,
    monotonicity_audit,
    s_c_alternating,
    s_nl,
    s_u,
    s_uc,
    apply_wiring,
)
from .wirings import (
    feedback_copy_wiring,
    random_global_wiring,
    random_losr_wiring,
    random_uclosr_wiring,
    random_wpicc_wiring,
    setting_fold_wiring,
    apply_gw,
    apply_losr,
    apply_wpicc,
)

SC2222 = Scenario(2, 2, 2, 2)

BEHAVIOR_PRESETS = {
    "pr-box": lambda eps: pr_box(),
    "white-noise": lambda eps: white_noise(SC2222),
    "tsirelson-four": lambda eps: tsirelson_four_setting(),
    "doubling-first": doubling_pair_first,
    "doubling-second": doubling_pair_second,
}

WIRING_PRESETS = {
    "feedback-wpicc": feedback_copy_wiring,
    "setting-fold-losr": setting_fold_wiring,
}

def _trial_seed(seed: int, trial: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, trial, stream]).generate_state(1)[0])


def _load_behavior(source: str, epsilon: float, vertex_cap: int) -> Behavior:
    if source in BEHAVIOR_PRESETS:
        return BEHAVIOR_PRESETS[source](epsilon)
    with open(source, "r", encoding="utf-8") as fh:
        return jsonio.behavior_from_json(fh.read(), vertex_cap=vertex_cap)


def _load_wiring(source: str, vertex_cap: int):
    if source in WIRING_PRESETS:
        return WIRING_PRESETS[source]()
    with open(source, "r", encoding="utf-8") as fh:
        return jsonio.wiring_from_json(fh.read(), vertex_cap=vertex_cap)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return jsonio.dumps(report) + "\n"
    # each value cell is the value's JSON text, as the JSON report has it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows([key, jsonio.dumps(value)] for key, value in report.items())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reproduce-thm2: divergence doubling under the feedback preset
# ---------------------------------------------------------------------------


def cmd_reproduce_thm2(args) -> int:
    eps = args.epsilon
    p0 = doubling_pair_first(eps)
    p0p = doubling_pair_second(eps)
    wiring = feedback_copy_wiring()
    before = behavior_re(p0, p0p).bits
    after = behavior_re(apply_wpicc(wiring, p0), apply_wpicc(wiring, p0p)).bits
    closed_form = (0.5 - 2.0 * eps) * math.log2((0.5 - eps) / eps)
    degenerate = abs(eps - 0.25) < 1e-15 or closed_form == 0.0
    ratio = after / before if before > 0 else float("nan")
    ok = degenerate or abs(ratio - 2.0) <= args.tol
    report = {
        "epsilon": eps,
        "before_bits": before,
        "after_bits": after,
        "closed_form_bits": closed_form,
        "ratio": ratio,
        "degenerate": degenerate,
        "passed": bool(ok),
    }
    print(f"before = {before:.12g} bits (closed form {closed_form:.12g})")
    print(f"after  = {after:.12g} bits")
    if degenerate:
        print("degenerate point: both divergences vanish")
    else:
        print(f"ratio  = {ratio:.12g} (expected 2)")
    _emit(_report_text(report, args.format), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# reproduce-thm5: uniform-strength increase under the fold preset
# ---------------------------------------------------------------------------


def cmd_reproduce_thm5(args) -> int:
    p0 = tsirelson_four_setting()
    wiring = setting_fold_wiring()
    pf = apply_losr(wiring, p0)
    # sanity: the folded box agrees with the original on all low-product
    # final settings
    sanity = all(
        np.allclose(pf.p[c, s], p0.p[c, s], atol=1e-12)
        for c in range(4)
        for s in range(4)
        if c * s <= 1
    )
    r0 = s_u(p0, args.tol)
    rf = s_u(pf, args.tol)
    slack = 2.0 * (4.0 * r0.gap_estimate + rf.gap_estimate)
    ok = sanity and r0.value > args.tol and rf.value >= 4.0 * r0.value - slack
    report = {
        "v0": r0.value,
        "v0_gap": r0.gap_estimate,
        "vf": rf.value,
        "vf_gap": rf.gap_estimate,
        "ratio": rf.value / r0.value if r0.value > 0 else float("nan"),
        "slack": slack,
        "low_product_settings_preserved": bool(sanity),
        "passed": bool(ok),
    }
    print(f"v0 = {r0.value:.12g} bits (gap {r0.gap_estimate:.3g})")
    print(f"vf = {rf.value:.12g} bits (gap {rf.gap_estimate:.3g})")
    print(f"ratio = {report['ratio']:.12g} (must be >= 4 - slack)")
    print(f"low-product settings preserved: {sanity}")
    _emit(_report_text(report, args.format), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# campaign: property-test suites over seeded random instances
# ---------------------------------------------------------------------------


def _trial_gw_contractivity(seed: int, trial: int, tol: float) -> AuditRow:
    p = random_ns_behavior(SC2222, _trial_seed(seed, trial, 0))
    pp = random_ns_behavior(SC2222, _trial_seed(seed, trial, 1))
    w = random_global_wiring(SC2222, SC2222, _trial_seed(seed, trial, 2))
    before = behavior_re(p, pp).bits
    after = behavior_re(apply_gw(w, p), apply_gw(w, pp)).bits
    slack = 1e-9
    if math.isinf(before):
        violation = 0.0
    elif math.isinf(after):
        violation = float("inf")
    else:
        violation = max(0.0, after - before - slack)
    return AuditRow("gw", before, after, slack, violation)


def _trial_losr_closure(seed: int, trial: int, tol: float) -> AuditRow:
    p, _ = random_local_behavior(SC2222, _trial_seed(seed, trial, 0))
    w = random_losr_wiring(SC2222, SC2222, _trial_seed(seed, trial, 1))
    out = apply_losr(w, p)
    local = is_local(out, tol=1e-8).is_local
    return AuditRow("losr-closure", 1.0, 1.0 if local else 0.0, 0.0,
                    0.0 if local else 1.0)


def _trial_snl_monotonicity(seed: int, trial: int, tol: float) -> AuditRow:
    p = random_ns_behavior(SC2222, _trial_seed(seed, trial, 0))
    w = random_wpicc_wiring(SC2222, SC2222, _trial_seed(seed, trial, 1))
    rep = monotonicity_audit("snl", p, [w], tol)
    return replace(rep.rows[0], label="snl-wpicc")


def _trial_suc_monotonicity(seed: int, trial: int, tol: float) -> AuditRow:
    p = random_ns_behavior(SC2222, _trial_seed(seed, trial, 0))
    w = random_uclosr_wiring(SC2222, SC2222, _trial_seed(seed, trial, 1))
    rep = monotonicity_audit("suc", p, [w], tol, restarts=8,
                             seed=_trial_seed(seed, trial, 2))
    return replace(rep.rows[0], label="suc-uclosr")


def _trial_convexity(seed: int, trial: int, tol: float) -> AuditRow:
    p = random_ns_behavior(SC2222, _trial_seed(seed, trial, 0))
    pp = random_ns_behavior(SC2222, _trial_seed(seed, trial, 1))
    rng = np.random.default_rng(_trial_seed(seed, trial, 2))
    mu = float(rng.uniform())
    rep_nl = convexity_audit("snl", p, pp, [mu], tol)
    rep_uc = convexity_audit("suc", p, pp, [mu], tol, restarts=6,
                             seed=_trial_seed(seed, trial, 3))
    # the s_nl row, with the worse violation of the two quantifiers
    return replace(rep_nl.rows[0], label=f"convexity-mu={mu:.6f}",
                   violation=max(rep_nl.worst, rep_uc.worst))


def _trial_minimax_identity(seed: int, trial: int, tol: float) -> AuditRow:
    p = random_ns_behavior(SC2222, _trial_seed(seed, trial, 0))
    a = s_nl(p, tol)
    b = s_c_alternating(p, tol)
    gap = abs(a.value - b.value)
    return AuditRow("minimax", a.value, b.value, 2.0 * tol, max(0.0, gap - 2.0 * tol))


TRIAL_RUNNERS = {
    "gw_contractivity": _trial_gw_contractivity,
    "losr_closure": _trial_losr_closure,
    "snl_monotonicity": _trial_snl_monotonicity,
    "suc_monotonicity": _trial_suc_monotonicity,
    "convexity": _trial_convexity,
    "minimax_identity": _trial_minimax_identity,
}


def cmd_campaign(args) -> int:
    runner = TRIAL_RUNNERS[args.suite]
    trials = _index(args.trials, math.inf, "--trials")
    seed = _index(args.seed, math.inf, "--seed")

    def run_trial(trial: int) -> tuple[AuditRow, str]:
        try:
            return runner(seed, trial, args.tol), ""
        except BellwireError as err:
            nan = float("nan")
            return AuditRow("error", nan, nan, nan, nan), str(err)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "label", "value_before", "value_after", "slack",
                     "violation", "error"])
    n_viol = 0
    n_err = 0
    for trial in range(trials):
        row, error = run_trial(trial)
        if math.isnan(row.violation):
            n_err += 1
        elif row.violated:
            n_viol += 1
        writer.writerow([
            trial, row.label,
            f"{row.value_before:.17g}", f"{row.value_after:.17g}",
            f"{row.slack:.17g}", f"{row.violation:.17g}", error,
        ])
    _emit(buf.getvalue(), args.out)
    print(f"suite={args.suite} trials={trials} violations={n_viol} "
          f"errors={n_err}", file=sys.stderr)
    return 0 if (n_viol == 0 and n_err == 0) else 1


# ---------------------------------------------------------------------------
# eval: single-shot evaluations
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    cap = args.vertex_cap
    what = args.what
    if what in ("sb", "apply") and args.infile2 is None:
        raise ParameterOutOfRange(f"eval {what} needs a second input: --in2")
    if what == "ns_check":
        p = _load_behavior(args.infile, args.epsilon, cap)
        rep = is_no_signaling(p, 1e-9)
        report = {"ok": rep.ok, "max_residual": rep.max_residual,
                  "worst": list(rep.worst) if rep.worst else None}
    elif what == "local_check":
        p = _load_behavior(args.infile, args.epsilon, cap)
        res = is_local(p)
        report = {"is_local": res.is_local}
        if res.model is not None:
            report["model"] = json.loads(jsonio.local_model_to_json(res.model))
        if res.certificate is not None:
            report["certificate"] = json.loads(
                jsonio.certificate_to_json(res.certificate))
    elif what == "sb":
        p = _load_behavior(args.infile, args.epsilon, cap)
        pp = _load_behavior(args.infile2, args.epsilon, cap)
        val = behavior_re(p, pp)
        report = json.loads(jsonio.divergence_to_json(val))
    elif what in QUANTIFIERS:
        p = _load_behavior(args.infile, args.epsilon, cap)
        extra = {"restarts": args.restarts, "seed": args.seed} if what == "suc" else {}
        res = evaluate_quantifier(what, p, args.tol, **extra)
        report = json.loads(jsonio.monotone_result_to_json(res))
    elif what == "apply":
        w = _load_wiring(args.infile, cap)
        p = _load_behavior(args.infile2, args.epsilon, cap)
        out = apply_wiring(w, p)
        report = json.loads(jsonio.behavior_to_json(out))
    else:
        raise ParameterOutOfRange(f"unknown eval target {what!r}")
    _emit(_report_text(report, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellwire",
        description=(
            "Bipartite Bell-box behaviors, nonlocality-free wirings, and "
            "relative-entropy nonlocality quantifiers."
        ),
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help=f"solver tolerance in bits (default {DEFAULT_TOL:g})")
    parser.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP,
                        help="cap on deterministic vertex pairs per scenario")
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser(
        "reproduce-thm2",
        help="check that the feedback preset doubles the divergence of the "
             "epsilon pair",
    )
    p2.add_argument("--epsilon", type=float, required=True)
    p2.add_argument("--out", default=None)
    p2.add_argument("--format", choices=["json", "csv"], default="json")
    p2.set_defaults(func=cmd_reproduce_thm2)

    p5 = sub.add_parser(
        "reproduce-thm5",
        help="check that the fold preset quadruples the uniform-input "
             "strength of the four-setting box",
    )
    p5.add_argument("--out", default=None)
    p5.add_argument("--format", choices=["json", "csv"], default="json")
    p5.set_defaults(func=cmd_reproduce_thm5)

    pc = sub.add_parser(
        "campaign",
        help="run a property-test suite over seeded random instances; "
             "CSV columns: trial,label,value_before,value_after,slack,"
             "violation,error",
    )
    pc.add_argument("--suite", choices=list(TRIAL_RUNNERS), required=True)
    pc.add_argument("--trials", type=int, required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_campaign)

    pe = sub.add_parser(
        "eval",
        help="single-shot evaluation with full certificates",
    )
    pe.add_argument("what", choices=["ns_check", "local_check", "sb", *QUANTIFIERS, "apply"])
    pe.add_argument("--in", dest="infile", required=True,
                    help="behavior/wiring JSON file or preset name "
                         f"(behaviors: {', '.join(BEHAVIOR_PRESETS)}; "
                         f"wirings: {', '.join(WIRING_PRESETS)})")
    pe.add_argument("--in2", dest="infile2", default=None,
                    help="second input for sb (behavior) and apply (behavior)")
    pe.add_argument("--epsilon", type=float, default=0.125,
                    help="parameter for the doubling-pair presets")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--restarts", type=int,
                    default=inspect.signature(s_uc).parameters["restarts"].default)
    pe.add_argument("--out", default=None)
    pe.add_argument("--format", choices=["json", "csv"], default="json")
    pe.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BellwireError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
