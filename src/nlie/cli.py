"""Command line interface.

Exit codes: 0 success, 1 identity failure or verdict mismatch, 2 usage
or expression errors, 3 budget exhaustion.  Every command takes --json
for machine-readable output following schemas/report.schema.json; text
and JSON always agree on the verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import analysis, brackets, structures, suite
from .groebner import BudgetExhausted
from .parser import ParseError, infer_context, parse_polynomial
from .poly import Polynomial, VarContext
from .quotient import QuotientContext, QuotientError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# Largest bracket arity the CLI builds an algebra or bracket for.  A
# bracket call memoizes every column subset of its fixed rows, so time
# grows about 5x and memory about 3x per +2 of arity: on a 2-core Xeon VM
# `bracket --algebra quadric --arity N` on N dense linear forms takes
# 0.36 s at N = 14, 1.25 s (44 MB peak) at 16 and 6.3 s (130 MB) at 18.
MAX_ARITY = 16


def _color_enabled() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _status(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _alpha_list(text: str) -> List[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a comma-separated rational list: {text!r}")


def _add_algebra_args(p: argparse.ArgumentParser, casimir_ok: bool = True) -> None:
    p.add_argument("--algebra", metavar="NAME",
                   help="built-in algebra; see `nlie algebra list`")
    p.add_argument("--alpha", type=_fraction, help="parameter for elliptic / malcev-abg")
    p.add_argument("--beta", type=_fraction, help="parameter for malcev-abg")
    p.add_argument("--gamma", type=_fraction, help="parameter for malcev-abg")
    p.add_argument("--arity", type=int, help="arity for quadric")
    p.add_argument("--alphas", type=_alpha_list, metavar="A1,A2,...",
                   help="diagonal coefficients for nlie")
    if casimir_ok:
        p.add_argument("--casimir", metavar="EXPR",
                       help="explicit Casimir polynomial (Jacobian bracket)")
        p.add_argument("--vars", metavar="V1,V2,...",
                       help="variable order for --casimir (default: sorted names)")


def _check_arity(arity: int, source: str) -> None:
    if arity > MAX_ARITY:
        raise BudgetExhausted(f"{source} gives a bracket of arity {arity} "
                              f"(limit {MAX_ARITY})")


def _build_spec(ns) -> structures.AlgebraSpec:
    if ns.arity is not None:
        _check_arity(ns.arity, "--arity")
    if ns.alphas:
        _check_arity(len(ns.alphas) - 1, f"--alphas with {len(ns.alphas)} entries")
    return structures.build_algebra(
        ns.algebra, alpha=ns.alpha, beta=ns.beta, gamma=ns.gamma,
        arity=ns.arity, alphas=ns.alphas)


def _resolve_bracket(ns) -> Tuple[object, Optional[structures.AlgebraSpec], str]:
    """Bracket from --algebra or --casimir; returns (bracket, spec, label)."""
    if ns.algebra and getattr(ns, "casimir", None):
        raise UsageError("--algebra and --casimir are mutually exclusive")
    if ns.algebra:
        spec = _build_spec(ns)
        return spec.bracket, spec, spec.name
    expr = getattr(ns, "casimir", None)
    if not expr:
        raise UsageError("need --algebra NAME or --casimir EXPR")
    if getattr(ns, "vars", None):
        ctx = VarContext(tuple(v.strip() for v in ns.vars.split(",")))
    else:
        ctx = infer_context(expr)
    _check_arity(ctx.nvars - 1, f"--casimir in {ctx.nvars} variables")
    casimir = parse_polynomial(expr, ctx)
    return brackets.JacobianBracket(casimir), None, f"P_C over {ctx}"


def _quotient_from(ns, bracket, spec) -> QuotientContext:
    casimir = spec.casimir if spec is not None else None
    return QuotientContext.create(bracket, ns.lam, casimir=casimir)


class UsageError(Exception):
    pass


class Report:
    """Collects one command's outcome for both output styles."""

    def __init__(self, command: str, ok: bool, exit_code: int, data: dict,
                 lines: Sequence[str]):
        self.command = command
        self.ok = ok
        self.exit_code = exit_code
        self.data = data
        self.lines = list(lines)

    def emit(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps({"command": self.command, "ok": self.ok,
                              "exit_code": self.exit_code, "data": self.data},
                             indent=2))
        else:
            for line in self.lines:
                print(line)
        return self.exit_code


# -- command handlers ------------------------------------------------------

def cmd_algebra(ns) -> Report:
    if ns.action == "list":
        catalogue = [(n, p, d) for n, (p, d, _) in structures.ALGEBRAS.items()]
        data = {"algebras": [{"name": n, "params": p, "description": d}
                             for n, p, d in catalogue]}
        lines = [f"{n:20s} {p:28s} {d}" for n, p, d in catalogue]
        return Report("algebra-list", True, EXIT_OK, data, lines)

    ns.algebra = ns.name
    spec = _build_spec(ns)
    table_rows = None
    if spec.table is not None:
        table_rows = [{"args": list(names), "value": str(value)}
                      for names, value in spec.table.rows()]
    data = {
        "name": spec.name,
        "arity": spec.arity,
        "variables": list(spec.ctx.names),
        "casimir": str(spec.casimir) if spec.casimir is not None else None,
        "params": {k: str(v) for k, v in spec.params.items()},
        "nondegenerate": spec.nondegenerate,
        "table": table_rows,
        "description": spec.description,
    }
    lines = [f"{spec.name}: {spec.description}",
             f"  arity {spec.arity}, variables {', '.join(spec.ctx.names)}"]
    if spec.casimir is not None:
        lines.append(f"  casimir: {spec.casimir}")
    if spec.params:
        lines.append("  params: " + ", ".join(f"{k}={v}" for k, v in spec.params.items()))
    if spec.nondegenerate is not None:
        lines.append(f"  nondegenerate form: {spec.nondegenerate}")
    if table_rows:
        lines.append("  products:")
        for row in table_rows:
            if row["value"] != "0":
                lines.append(f"    [{', '.join(row['args'])}] = {row['value']}")
    return Report("algebra-show", True, EXIT_OK, data, lines)


def cmd_bracket(ns) -> Report:
    bracket, spec, label = _resolve_bracket(ns)
    ctx = bracket.ctx
    polys = [parse_polynomial(e, ctx) for e in ns.exprs]
    if len(polys) != bracket.arity:
        raise UsageError(f"{label} bracket takes {bracket.arity} arguments, "
                         f"got {len(polys)}")
    result = bracket(*polys)
    data = {"algebra": label, "arity": bracket.arity,
            "inputs": [str(p) for p in polys], "result": str(result)}
    args = ", ".join(str(p) for p in polys)
    return Report("bracket", True, EXIT_OK, data, [f"[{args}] = {result}"])


def cmd_verify(ns) -> Report:
    if ns.trials < 0:
        raise UsageError(f"--trials must be non-negative, got {ns.trials}")
    bracket, spec, label = _resolve_bracket(ns)
    verifier = brackets.VERIFIERS[ns.identity]
    report = verifier(bracket, trials=ns.trials, seed=ns.seed)
    if report.trials == 0:
        raise UsageError(f"{ns.identity} on {label} made no checks; a verdict needs "
                         "--trials of at least 1, and skew an arity of at least 2")
    data = dict(report.to_dict(), algebra=label, seed=ns.seed)
    lines = [f"{_status(report.passed)} {ns.identity} on {label}: "
             f"{report.trials} checks, {report.failure_count} failures"]
    for failure in report.failures[:3]:
        lines.append(f"  defect {failure['defect']} at inputs "
                     + "; ".join(failure["inputs"]))
    code = EXIT_OK if report.passed else EXIT_FAIL
    return Report("verify", report.passed, code, data, lines)


def cmd_quotient(ns) -> Report:
    bracket, spec, label = _resolve_bracket(ns)
    qctx = _quotient_from(ns, bracket, spec)
    ctx = bracket.ctx
    polys = [parse_polynomial(e, ctx) for e in ns.exprs]
    lam = str(qctx.lam)

    if ns.action == "reduce":
        if len(polys) != 1:
            raise UsageError("reduce takes exactly one expression")
        result = qctx.reduce(polys[0])
        data = {"lambda": lam, "input": str(polys[0]), "result": str(result)}
        return Report("quotient-reduce", True, EXIT_OK, data,
                      [f"{polys[0]} = {result}  (mod C - {lam})"])

    if ns.action == "bracket":
        if len(polys) != bracket.arity:
            raise UsageError(f"bracket takes {bracket.arity} expressions")
        result = qctx.bracket_reduce(*polys)
        data = {"lambda": lam, "inputs": [str(p) for p in polys],
                "result": str(result)}
        args = ", ".join(str(p) for p in polys)
        return Report("quotient-bracket", True, EXIT_OK, data,
                      [f"[{args}] = {result}  (mod C - {lam})"])

    if ns.action == "grade":
        if len(polys) != 1:
            raise UsageError("grade takes exactly one expression")
        classes = qctx.grade_decompose(polys[0])
        data = {"lambda": lam, "modulus": qctx.m, "input": str(polys[0]),
                "classes": [{"residue": c.residue, "part": str(c.part)}
                            for c in classes]}
        lines = [f"degree classes mod {qctx.m}:"]
        lines += [f"  [{c.residue}] {c.part}" for c in classes]
        return Report("quotient-grade", True, EXIT_OK, data, lines)

    if len(polys) != 1:
        raise UsageError("lift takes exactly one expression")
    lifted = qctx.homogeneous_lift(polys[0])
    data = {"lambda": lam, "input": str(polys[0]), "result": str(lifted),
            "degree": lifted.total_degree()}
    return Report("quotient-lift", True, EXIT_OK, data,
                  [f"lift: {lifted}  (homogeneous of degree {lifted.total_degree()})"])


def _parse_standalone(ns) -> Polynomial:
    if ns.vars:
        ctx = VarContext(tuple(v.strip() for v in ns.vars.split(",")))
    else:
        ctx = infer_context(ns.expr)
    return parse_polynomial(ns.expr, ctx)


def cmd_root(ns) -> Report:
    poly = _parse_standalone(ns)
    res = analysis.kth_root(poly, ns.k)
    data = {"k": ns.k, "input": str(poly), "found": res.found,
            "root": str(res.root) if res.found else None,
            "alpha": str(res.alpha) if res.found else None,
            "reason": res.reason}
    if res.found:
        lines = [f"{poly} = {res.alpha} * ({res.root})^{ns.k}"]
    else:
        lines = [f"no {ns.k}-th root: {res.reason}"]
    return Report("root", True, EXIT_OK, data, lines)


def cmd_closed(ns) -> Report:
    poly = _parse_standalone(ns)
    rep = analysis.is_closed_homogeneous(poly)
    data = {"input": str(poly), "closed": rep.closed,
            "witness_k": rep.witness_k,
            "witness_root": str(rep.witness_root) if rep.witness_root else None}
    if rep.closed:
        lines = [f"{poly} is closed (no proper power decomposition)"]
    else:
        lines = [f"{poly} = alpha * ({rep.witness_root})^{rep.witness_k}"]
    return Report("closed", True, EXIT_OK, data, lines)


def cmd_minroot(ns) -> Report:
    poly = _parse_standalone(ns)
    mr = analysis.minimal_root_homogeneous(poly)
    data = {"input": str(poly), "root": str(mr.root), "k": mr.k,
            "alpha": str(mr.alpha), "was_closed": mr.was_closed}
    return Report("minroot", True, EXIT_OK, data,
                  [f"{poly} = {mr.alpha} * ({mr.root})^{mr.k}"
                   + ("  (already closed)" if mr.was_closed else "")])


def cmd_center(ns) -> Report:
    if ns.degree is not None and ns.degree < 0:
        raise UsageError(f"--degree must be non-negative, got {ns.degree}")
    if ns.quotient and ns.lam is None:
        raise UsageError("--quotient needs --lambda")
    if ns.lam is not None and not ns.quotient:
        raise UsageError("--lambda needs --quotient")
    if ns.element and ns.degree is not None:
        raise UsageError("--degree applies to the probe, not to --element")
    bracket, spec, label = _resolve_bracket(ns)
    qctx = _quotient_from(ns, bracket, spec) if ns.quotient else None
    if ns.element:
        poly = parse_polynomial(ns.element, bracket.ctx)
        ok, witnesses = analysis.center_membership(bracket, poly, qctx)
        wit_strs = [str(w[-1]) for w in witnesses[:5]]
        data = {"element": str(poly), "central": ok, "witnesses": wit_strs}
        where = "quotient" if qctx else "ambient algebra"
        verdict = "central" if ok else "not central"
        return Report("center", True, EXIT_OK, data,
                      [f"{poly} is {verdict} in the {where}"])
    degree = ns.degree if ns.degree is not None else bracket.casimir.total_degree() \
        if hasattr(bracket, "casimir") else 2
    probe = analysis.center_probe(bracket, degree, qctx)
    data = probe.to_dict()
    data["algebra"] = label
    lines = [f"center of {label} ({probe.mode}, degree <= {degree}): "
             f"dimension {probe.dimension}"]
    lines += [f"  {p}" for p in probe.basis]
    return Report("center", True, EXIT_OK, data, lines)


def cmd_saturate(ns) -> Report:
    for flag, value in (("--rounds", ns.rounds), ("--budget", ns.budget)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    bracket, spec, label = _resolve_bracket(ns)
    qctx = _quotient_from(ns, bracket, spec)
    seeds = [parse_polynomial(e, bracket.ctx) for e in ns.seed]
    report = analysis.saturate_poisson_ideal(qctx, seeds,
                                             max_rounds=ns.rounds,
                                             step_limit=ns.budget)
    matched = None if ns.expect == "any" else (report.verdict == ns.expect)
    data = dict(report.to_dict(), algebra=label, expected=ns.expect,
                matched=matched)
    lines = [f"verdict: {report.verdict} after {len(report.rounds)} rounds, "
             f"{report.steps_used} reduction steps"]
    for i, rd in enumerate(report.rounds):
        lines.append(f"  round {i + 1}: basis {rd['basis_size']}, "
                     f"new {rd['new_elements']}")
    if report.verdict != "whole-ring":
        lines.append("final basis: " + "; ".join(str(p) for p in report.final_basis))
    if report.verdict == "budget-exhausted":
        return Report("saturate", False, EXIT_BUDGET, data, lines)
    if matched is False:
        lines.append(f"{_status(False)} expected {ns.expect}")
        return Report("saturate", False, EXIT_FAIL, data, lines)
    return Report("saturate", True, EXIT_OK, data, lines)


def cmd_paper_suite(ns) -> Report:
    results = suite.run_suite(suite.paper_suite_items(ns.seed))
    failed = sum(1 for r in results if not r.passed)
    data = {"total": len(results), "failed": failed,
            "items": [r.to_dict() for r in results], "seed": ns.seed}
    lines = [f"{_status(r.passed)} {r.item_id:34s} {r.details}" for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} items passed")
    ok = failed == 0
    return Report("paper-suite", ok, EXIT_OK if ok else EXIT_FAIL, data, lines)


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nlie",
        description="exact n-ary Lie-Poisson brackets, quotients and probes")
    sub = top.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = with_json(sub.add_parser("algebra", help="list or inspect built-in algebras"))
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="algebra name for `show`")
    _add_algebra_args(p, casimir_ok=False)
    p.set_defaults(func=cmd_algebra)

    p = with_json(sub.add_parser("bracket", help="evaluate a bracket"))
    _add_algebra_args(p)
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.set_defaults(func=cmd_bracket)

    p = with_json(sub.add_parser("verify", help="check an identity on a bracket"))
    _add_algebra_args(p)
    p.add_argument("--identity", required=True, choices=sorted(brackets.VERIFIERS))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = with_json(sub.add_parser("quotient", help="work modulo C - lambda"))
    p.add_argument("action", choices=("reduce", "bracket", "grade", "lift"))
    _add_algebra_args(p)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True,
                   metavar="Q", help="nonzero rational shift")
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.set_defaults(func=cmd_quotient)

    p = with_json(sub.add_parser("root", help="k-th root of a homogeneous polynomial"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vars", metavar="V1,V2,...")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_root)

    p = with_json(sub.add_parser("closed", help="is the polynomial a proper power?"))
    p.add_argument("--vars", metavar="V1,V2,...")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_closed)

    p = with_json(sub.add_parser("minroot", help="minimal root, maximal exponent"))
    p.add_argument("--vars", metavar="V1,V2,...")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_minroot)

    p = with_json(sub.add_parser("center", help="center probe or membership"))
    _add_algebra_args(p)
    p.add_argument("--degree", type=int, help="probe degree bound")
    p.add_argument("--element", metavar="EXPR", help="membership test instead of probe")
    p.add_argument("--quotient", action="store_true", help="work modulo C - lambda")
    p.add_argument("--lambda", dest="lam", type=_fraction, metavar="Q")
    p.set_defaults(func=cmd_center)

    p = with_json(sub.add_parser("saturate",
                                 help="close an ideal under bracketing"))
    _add_algebra_args(p)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True, metavar="Q")
    p.add_argument("--seed", action="append", required=True, metavar="EXPR",
                   help="seed polynomial (repeatable)")
    p.add_argument("--rounds", type=int, default=25, help="round budget")
    p.add_argument("--budget", type=int, default=100_000, help="reduction step budget")
    p.add_argument("--expect", choices=("any", "whole-ring", "proper-stable"),
                   default="any", help="fail (exit 1) unless this verdict")
    p.set_defaults(func=cmd_saturate)

    p = with_json(sub.add_parser("paper-suite", help="full built-in check battery"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_paper_suite)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        report = ns.func(ns)
    except ParseError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return report.emit(ns.json)


if __name__ == "__main__":
    sys.exit(main())
