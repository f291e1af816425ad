"""Command-line front end.

Commands: analyze, dual, gray, standard-form, macwilliams, classify,
reproduce, search.  Exit codes: 0 ok, 2 bad input (parse errors cite
line and column; a code with more than 2^MAX_CODE_WORD_BITS words is
too large to build), 3 internal verification failure, 4 assertion
failure in reproduce or in the classification survey.

JSON output is canonical: fixed key order, sorted weight lists, no
environment-dependent content, so identical inputs give byte-identical
output.  Search emits one JSON object per hit (JSON lines) regardless
of --json; the summary goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from . import __version__
from .classify import (
    classify,
    dual_summary,
    verify_fsd_even_weight_criterion,
    verify_one_weight_theorems,
    verify_two_weight_relations,
    weight_profile,
)
from .core import (
    AdditiveCode,
    additive_span,
    format_row,
    gray_image,
    gray_parameters,
    parse_matrix_file,
    span,
)
from .errors import (
    ClassificationViolation,
    InternalVerificationFailure,
    TrivialCode,
    Z2ZuError,
)
from .presets import PRESETS, preset_code
from .search import (
    TARGETS,
    SearchSpace,
    optimality_check,
    search_with_pruning,
    verify_fsd_classification,
)
from .standard_form import standard_form
from .weights import (
    column_profile,
    lee_enumerator,
    macwilliams,
    power_moments,
    weight_sum_identity,
)

__all__ = ["main"]


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _dump(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, the text of every
    ``--json`` output but the search hit lines, for dicts whose keys
    are str.

    With ``indent`` set the json module encodes in pure Python, and that
    was the largest single cost of ``analyze --json`` (12-14% of it,
    2-core host).  This writer lays the containers out the same way and
    hands each leaf to json's C code: a str to
    ``encode_basestring_ascii``, an exact int to ``int.__repr__`` and
    anything else (bool, None, float) to ``json.dumps``."""
    return _dump_at(obj, "\n")


def _dump_at(obj, newline: str) -> str:
    """:func:`_dump` of a value whose line breaks are ``newline``, a line
    feed plus two spaces per enclosing container.  Exact int and str
    items are written in place: a call per leaf took 8% longer.  So is a
    list or tuple of exact (int, int) tuples, every enumerator's
    ``entries``, one string per pair: the five analyze_large objects
    dump in 363 us against 633 us with a call per pair, the five
    analyze_scan ones in 285 against 435 us (timeit, 2-core host)."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = [_quote(k) + ": " + (
            int.__repr__(v) if type(v) is int
            else _quote(v) if type(v) is str else _dump_at(v, inner)
        ) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is tuple and len(v) == 2 and type(v[0]) is int
               and type(v[1]) is int for v in obj):
            pair, close = inner + "  ", inner + "]"
            body = [f"[{pair}{a},{pair}{b}{close}" for a, b in obj]
        else:
            body = [int.__repr__(v) if type(v) is int
                    else _quote(v) if type(v) is str else _dump_at(v, inner)
                    for v in obj]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    return json.dumps(obj)


def _load(path: str) -> AdditiveCode:
    """The code a matrix file's rows span (core.span), closed under u."""
    return span(*parse_matrix_file(path))


def _enum_obj(enum) -> dict:
    return {"poly": enum.poly_str(), "counts": enum.entries}


# ---------------------------------------------------------------- analyze


def _theorem_checks(code, profile, report) -> dict:
    """The verifications that apply to this code, name -> outcome; the
    column profile and the classification say which apply."""
    checks: dict[str, object] = {}
    if profile.has_zero_column:
        checks["weight_sum_identity"] = "skipped: zero column present"
    else:
        checks["weight_sum_identity"] = weight_sum_identity(code)
    dual = dual_summary(code)
    moments = power_moments(lee_enumerator(code), code.cardinality,
                            dual.b1, dual.b2)
    checks["power_moments"] = bool(moments.all_ok)
    wp = weight_profile(code)
    if wp.is_one_weight:
        if profile.has_zero_column:
            checks["one_weight_relations"] = (
                "skipped: zero column present; " + "; ".join(wp.violations)
            )
        else:
            rep = verify_one_weight_theorems(code)
            checks["one_weight_relations"] = bool(rep.all_ok)
            if report.formally_self_dual:
                checks["fsd_even_weight_criterion"] = bool(
                    verify_fsd_even_weight_criterion(code)
                )
    if wp.is_two_weight:
        if report.projective:
            rep2 = verify_two_weight_relations(code)
            checks["two_weight_relations"] = bool(rep2.all_ok)
        else:
            checks["two_weight_relations"] = "skipped: not projective"
    return checks


def cmd_analyze(args) -> int:
    shape, rows = parse_matrix_file(args.file)
    code = span(shape, rows)
    # the subgroup the rows generate lies inside their span, so the two
    # are the same code exactly when they are the same size
    u_closed = additive_span(shape, rows).cardinality == code.cardinality
    if code.cardinality == 1:
        raise TrivialCode("matrix spans only the zero code")
    sf = standard_form(code)
    enum = lee_enumerator(code)
    dual = dual_summary(code)
    report = classify(code)
    gp = gray_parameters(code)
    profile = column_profile(code)
    checks = _theorem_checks(code, profile, report)
    warnings = []
    if not u_closed:
        warnings.append(
            "rows are not u-closed; analyzing their closure under "
            "u-multiplication, which is strictly larger than the subgroup "
            "they generate"
        )
    if profile.has_zero_column:
        warnings.append(
            f"zero columns present (binary {list(profile.zero_binary_columns)}, "
            f"ring {list(profile.zero_ring_columns)}); "
            "weight identities are not expected to hold"
        )
    obj = {
        "shape": {"alpha": code.shape.alpha, "beta": code.shape.beta,
                  "n": code.shape.big_n},
        "rows_u_closed": u_closed,
        "cardinality": code.cardinality,
        "type": sf.code_type.compact(),
        "standard_form": [format_row(v) for v in sf.rows],
        "lee": _enum_obj(enum),
        "gray": {"n": gp[0], "k": gp[1], "d": gp[2],
                 "optimality": optimality_check(*gp)},
        "dual": {
            "source": dual.source,
            "cardinality": dual.cardinality,
            "min_lee_weight": dual.min_weight,
            **_enum_obj(dual.enumerator),
        },
        "classification": report.to_json_obj(),
        "checks": checks,
        "warnings": warnings,
    }
    if args.json:
        print(_dump(obj))
        return 0
    print(f"shape: alpha={code.shape.alpha} beta={code.shape.beta} "
          f"(N={code.shape.big_n})")
    print(f"cardinality: {code.cardinality}")
    print(f"type: {sf.code_type.compact()}")
    print("standard form:")
    for v in sf.rows:
        print(f"  {format_row(v)}")
    print(f"lee enumerator: {enum.poly_str()}")
    print(f"gray image: [{gp[0]},{gp[1]},{gp[2]}] "
          f"({obj['gray']['optimality']})")
    print(f"dual ({dual.source}): cardinality {dual.cardinality}, "
          f"min lee weight {dual.min_weight}")
    print(f"dual enumerator: {dual.enumerator.poly_str()}")
    flags = report.to_json_obj()
    on = [k for k, v in flags.items() if v is True]
    print("classification: " + (", ".join(on) if on else "(no flags)"))
    print("checks:")
    for name, val in checks.items():
        shown = {True: "pass", False: "FAIL"}.get(val, val)
        print(f"  {name}: {shown}")
    for w in warnings:
        _say(args, f"warning: {w}")
    return 0


# ------------------------------------------------------------------- dual


def cmd_dual(args) -> int:
    code = _load(args.file)
    summary = dual_summary(code)
    enum, dual = summary.enumerator, summary.dual_code
    sf = standard_form(dual)
    rows = [format_row(v) for v in sf.unpermuted_rows]
    gp = gray_parameters(dual)
    if args.json:
        print(_dump({
            "source": summary.source,
            "dual": _enum_obj(enum),
            "cardinality": dual.cardinality,
            "type": sf.code_type.compact(),
            "generators": rows,
            "gray": list(gp),
        }))
        return 0
    print(f"dual cardinality: {dual.cardinality}")
    print(f"dual type: {sf.code_type.compact()}")
    print("dual generators:")
    for r in rows:
        print(f"  {r}")
    print(f"dual enumerator: {enum.poly_str()}")
    print(f"dual gray image: [{gp[0]},{gp[1]},{gp[2]}]")
    return 0


# ------------------------------------------------------------------- gray


def cmd_gray(args) -> int:
    code = _load(args.file)
    enum = lee_enumerator(code)
    gp = gray_parameters(code)
    # the image holds every word; only --words needs it
    words = ([format(w, f"0{gp[0]}b") for w in gray_image(code).words]
             if args.words else [])
    if args.json:
        obj = {"n": gp[0], "k": gp[1], "d": gp[2],
               "optimality": optimality_check(*gp),
               "enumerator": _enum_obj(enum)}
        if args.words:
            obj["words"] = words
        print(_dump(obj))
        return 0
    print(f"gray image: [{gp[0]},{gp[1]},{gp[2]}] "
          f"({optimality_check(*gp)})")
    print(f"weight enumerator: {enum.poly_str()}")
    for w in words:
        print(w)
    return 0


# ---------------------------------------------------------- standard-form


def cmd_standard_form(args) -> int:
    code = _load(args.file)
    sf = standard_form(code)
    if args.json:
        print(_dump({
            "type": sf.code_type.compact(),
            "rows": [format_row(v) for v in sf.rows],
            "binary_column_order": list(sf.bin_perm),
            "ring_column_order": list(sf.ring_perm),
        }))
        return 0
    print(sf.to_matrix_text(), end="")
    _say(args, f"# binary columns (original order): {list(sf.bin_perm)}")
    _say(args, f"# ring columns (original order): {list(sf.ring_perm)}")
    return 0


# ------------------------------------------------------------- macwilliams


def cmd_macwilliams(args) -> int:
    code = _load(args.file)
    enum = lee_enumerator(code)
    transformed = macwilliams(enum, code.cardinality)
    if args.json:
        print(_dump({"primal": _enum_obj(enum),
                     "dual": _enum_obj(transformed)}))
        return 0
    print(f"primal enumerator: {enum.poly_str()}")
    print(f"dual enumerator: {transformed.poly_str()}")
    return 0


# ---------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    code = _load(args.file)
    report = classify(code)
    obj = report.to_json_obj()
    if args.json:
        print(_dump(obj))
        return 0
    for k, v in obj.items():
        print(f"{k}: {v}")
    return 0


# --------------------------------------------------------------- reproduce


def _check(name, got, expected):
    status = "PASS" if got == expected else "FAIL"
    detail = f"{name}: expected {expected!r}, got {got!r}" if status == "FAIL" \
        else f"{name}: {got!r}"
    return {"name": name, "status": status, "detail": detail}


def _reproduce_one(key: str) -> list[dict]:
    p = PRESETS[key]
    code = preset_code(key)
    enum = lee_enumerator(code)
    results = []
    results.append(_check("lee counts", enum.entries, p.lee_counts))
    results.append(_check("lee polynomial", enum.poly_str(), p.lee_poly))
    gp = gray_parameters(code)
    results.append(_check("gray parameters", gp, p.gray))
    if p.gray_optimal:
        results.append(_check("gray optimality",
                              optimality_check(*gp), "optimal"))
    wp = weight_profile(code)
    if p.one_weight:
        results.append(_check("one-weight", wp.is_one_weight, True))
        profile = column_profile(code)
        if profile.has_zero_column:
            results.append({
                "name": "one-weight relations", "status": "SKIP",
                "detail": "one-weight relations: zero column present, "
                          "relations do not apply "
                          f"({'; '.join(wp.violations)})",
            })
        else:
            results.append(_check("one-weight relations",
                                  wp.lambda_ is not None, True))
    if p.two_weight:
        results.append(_check("two-weight", wp.is_two_weight, True))

    # the module span backs every dual-side quantity; 5.4's rows are not
    # u-closed, so nothing dual-side is stated or checked for it
    if p.module_span:
        dual = dual_summary(code)
        if p.dual_lee_counts is not None:
            results.append(_check("dual lee counts", dual.enumerator.entries,
                                  p.dual_lee_counts))
        if p.dual_gray is not None:
            dgp = gray_parameters(dual.dual_code)
            results.append(_check("dual gray parameters", dgp, p.dual_gray))
            if p.dual_gray_optimal:
                results.append(_check("dual gray optimality",
                                      optimality_check(*dgp), "optimal"))
        report = classify(code)
        for name, got, stated in (
            ("projective", report.projective, p.projective),
            ("formally self-dual", report.formally_self_dual,
             p.formally_self_dual),
            ("self-dual", report.self_dual, p.self_dual),
        ):
            if stated is not None:
                results.append(_check(name, got, stated))

    # type comparison: the known discrepancies report, they do not fail
    module = span(code.shape, code.generators) if not p.module_span else code
    computed = standard_form(module).code_type
    if p.stated_type is not None:
        k0, k1, k2 = p.stated_type
        stated_exp = k0 + 2 * k1 + k2
        results.append(_check("stated-type cardinality",
                              1 << stated_exp, code.cardinality))
        if computed.triple == p.stated_type:
            results.append(_check("type", computed.triple, p.stated_type))
        elif p.type_discrepancy_known:
            detail = (f"type: computed {computed.triple} vs stated "
                      f"{p.stated_type} (cardinality agrees)")
            if not p.module_span:
                detail += (
                    f"; rows are not u-closed: the stated data describes "
                    f"the {code.cardinality}-word subgroup, their module "
                    f"closure has {module.cardinality} words"
                )
            results.append({"name": "type", "status": "DISCREPANCY-KNOWN",
                            "detail": detail})
        else:
            results.append(_check("type", computed.triple, p.stated_type))
    results.append(_check("computed-type cardinality",
                          1 << computed.exponent, module.cardinality))
    return results


def cmd_reproduce(args) -> int:
    keys = list(PRESETS) if args.example == ["all"] else args.example
    for k in keys:
        if k not in PRESETS:
            print(f"error: unknown example {k!r}; choose from "
                  f"{', '.join(PRESETS)} or 'all'", file=sys.stderr)
            return 2
    failures = 0
    out = []
    for k in keys:
        results = _reproduce_one(k)
        out.append({"example": k, "assertions": results})
        for r in results:
            if r["status"] == "FAIL":
                failures += 1
        if not args.json:
            print(f"[{k}]")
            for r in results:
                if args.quiet and r["status"] == "PASS":
                    continue
                print(f"  {r['status']:>6}  {r['detail']}")
    total = sum(len(o["assertions"]) for o in out)
    if args.json:
        print(_dump({"examples": out, "assertions": total,
                     "failures": failures}))
    else:
        print(f"{len(keys)} example(s), {total} assertions, "
              f"{failures} failure(s)")
    return 4 if failures else 0


# ------------------------------------------------------------------ search


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        v = int(text)
        return (v, v)
    return (int(lo), int(hi))


def cmd_search(args) -> int:
    alpha = _parse_range(args.alpha)
    beta = _parse_range(args.beta)
    if args.verify_thm_4_5:
        # the survey covers every shape from alpha = beta = 0 up to the
        # given bounds and has no target, budget or include rows
        if (".." in args.alpha and alpha[0]) or (".." in args.beta and beta[0]):
            print("error: --verify-thm-4.5 surveys alpha and beta from 0; "
                  "give only their upper bounds", file=sys.stderr)
            return 2
        for flag in ("budget", "target", "include"):
            if getattr(args, flag) is not None:
                print(f"error: --verify-thm-4.5 takes no --{flag}",
                      file=sys.stderr)
                return 2
        survey = verify_fsd_classification(alpha[1], beta[1], args.rows)
        survivor_rows = [
            {"alpha": c.shape.alpha, "beta": c.shape.beta,
             "generators": [format_row(g) for g in c.generators]}
            for c in survey.survivors
        ]
        if args.json:
            print(_dump({
                "codes_examined": survey.codes_examined,
                "survivors": survivor_rows,
                "matches": survey.matches,
            }))
        else:
            print(f"{len(survey.survivors)} survivors out of "
                  f"{survey.codes_examined} codes examined; one-weight "
                  "formally self-dual classification confirmed")
        return 0
    if args.target is None:
        print("error: --target is required unless --verify-thm-4.5 is given",
              file=sys.stderr)
        return 2
    include = ()
    if args.include:
        shape, rows = parse_matrix_file(args.include)
        if not (alpha[0] <= shape.alpha <= alpha[1]
                and beta[0] <= shape.beta <= beta[1]):
            print("error: --include matrix shape falls outside the "
                  "searched ranges", file=sys.stderr)
            return 2
        include = (rows,)
    mode = "random" if args.budget is not None else "exhaustive"
    space = SearchSpace(
        alpha=alpha, beta=beta, max_rows=args.rows, mode=mode,
        budget=args.budget, seed=args.seed,
        target=args.target.replace("-", "_"),
    )
    hits = search_with_pruning(space, include=include)
    for hit in hits:
        obj = {
            "alpha": hit.code.shape.alpha,
            "beta": hit.code.shape.beta,
            "generators": [format_row(g) for g in hit.code.generators],
            "type": standard_form(hit.code).code_type.compact(),
            "cardinality": hit.code.cardinality,
            "lee": lee_enumerator(hit.code).entries,
            "flags": hit.report.to_json_obj(),
            "gray": list(hit.gray),
            "optimality": hit.optimality,
        }
        print(json.dumps(obj))
    print(f"# {len(hits)} hit(s)", file=sys.stderr)
    return 0


# ------------------------------------------------------------------- main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress notes and passing lines")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for random search")

    parser = argparse.ArgumentParser(
        prog="z2zu",
        description="Additive codes over Z2 x (Z2+uZ2): weights, duals, "
                    "standard forms, classification.",
        epilog="exit codes: 0 ok, 2 bad input, 3 internal verification "
               "failure, 4 assertion failure",
        parents=[common],
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, blurb in (
        ("analyze", cmd_analyze, "full report for a generator matrix file"),
        ("dual", cmd_dual, "dual generators and enumerator"),
        ("gray", cmd_gray, "binary image parameters and enumerator"),
        ("standard-form", cmd_standard_form, "reduced generator matrix"),
        ("macwilliams", cmd_macwilliams, "dual enumerator by transform only"),
        ("classify", cmd_classify, "classification flags"),
    ):
        sp = sub.add_parser(name, parents=[common], help=blurb)
        sp.add_argument("file", help="matrix file")
        if name == "gray":
            sp.add_argument("--words", action="store_true",
                            help="also print the image codewords")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="recompute the bundled reference codes")
    sp.add_argument("example", nargs="+",
                    help=f"ids: {', '.join(PRESETS)}, or 'all'")
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("search", parents=[common],
                        help="scan small codes for target properties")
    sp.add_argument("--alpha", required=True, help="N or LO..HI")
    sp.add_argument("--beta", required=True, help="N or LO..HI")
    sp.add_argument("--rows", type=int, default=3,
                    help="max generator rows (default 3)")
    sp.add_argument("--budget", type=int, default=None,
                    help="random candidate draws; without --budget "
                         "every code is walked")
    sp.add_argument("--target",
                    choices=tuple(t.replace("_", "-") for t in TARGETS),
                    default=None)
    sp.add_argument("--include", default=None, metavar="FILE",
                    help="matrix file whose rows are examined ahead of "
                         "the stream under the same filters")
    sp.add_argument("--verify-thm-4.5", dest="verify_thm_4_5",
                    action="store_true",
                    help="check the one-weight formally self-dual survey "
                         "against the expected four codes")
    sp.set_defaults(func=cmd_search)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # Global flags are accepted both before and after the subcommand.  The
    # shared option objects carry SUPPRESS defaults so a subparser never
    # clobbers a value parsed at the top level; fill the gaps here instead.
    for name, default in (("json", False), ("quiet", False), ("seed", 0)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except InternalVerificationFailure as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return 3
    except ClassificationViolation as e:
        print(f"classification mismatch: {e}", file=sys.stderr)
        return 4
    except (Z2ZuError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
