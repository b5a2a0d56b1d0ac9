"""Command-line surface.

Subcommands: class, series, qmod-fit, hurwitz, count, verify. Every number
is printed exactly ("p/q" strings in JSON, never floats), output is
deterministic, and exit codes are 0 (success), 1 (verification failure), 2
(usage error). The command line defines no budget of its own: `class --d`,
`verify --max-d`, the --d of `count sublattices` and `count
pointed-isogenies`, and every fit order (`series --N`, `verify --N`, and the
order of `qmod-fit`: its --N, else its array length less one) are bounded by
the library's one order budget, divisors.TABLE_ORDER_CEILING, and the fit
weight of `series` and `qmod-fit` by quasimodular.FIT_WEIGHT_CEILING. Above
either the library's ValueError exits 2 before any table, class or basis is
built; `series` checks its weight first. `count dd22` and `dd2222`, closed
polynomials, read no table and have no bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import loci, report
from .errors import CrossCheckError
from .covers import (
    Partition,
    count_dd22,
    count_dd2222,
    count_pointed_isogenies,
    count_sublattices,
    hurwitz_number,
)
from .quasimodular import fit_quasimodular, require_fit_weight
from .series import QSeries, format_rational

SCHEMA = report.SCHEMA

_COUNTS = {
    "sublattices": count_sublattices,
    "pointed-isogenies": count_pointed_isogenies,
    "dd22": count_dd22,
    "dd2222": count_dd2222,
}


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _format_class(cls) -> str:
    terms = []
    for label, coeff in zip(cls.labels, cls.coefficients):
        if coeff == 0:
            continue
        piece = f"{format_rational(abs(coeff))}*{label}"
        if not terms:
            terms.append(piece if coeff > 0 else f"-{piece}")
        else:
            terms.append(f"{'+' if coeff > 0 else '-'} {piece}")
    return " ".join(terms) if terms else "0"


def _cmd_class(args) -> int:
    cls = loci.class_in_family(args.space, args.d)
    payload = {
        "schema": SCHEMA,
        "space": args.space,
        "d": args.d,
        "class": cls.to_json_dict(),
    }
    _emit(args, payload, _format_class(cls))
    return 0


def _cmd_series(args) -> int:
    require_fit_weight(args.weight)  # before the class series is built
    series = loci.coefficient_series(args.space, args.label, args.N)
    fit = fit_quasimodular(series, args.weight, args.N)
    payload = {
        "schema": SCHEMA,
        "space": args.space,
        "label": args.label,
        "order": args.N,
        "coefficients": series.to_json(),
        "fit": fit.to_json_dict(),
    }
    text = "coefficients: " + ", ".join(series.to_json()) + "\nfit: " + json.dumps(
        fit.to_json_dict()
    )
    _emit(args, payload, text)
    return 0


def _cmd_qmod_fit(args) -> int:
    if args.infile == "-":
        raw = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        items = json.loads(raw)
    except RecursionError:
        raise ValueError("input nests too deeply") from None
    if not isinstance(items, list):
        raise ValueError("input must be a JSON array of rational strings")
    series = QSeries.from_json(items)
    order = series.order if args.N is None else args.N
    fit = fit_quasimodular(series, args.weight, order)
    payload = {
        "schema": SCHEMA,
        "weight": args.weight,
        "order": order,
        "fit": fit.to_json_dict(),
    }
    _emit(args, payload, json.dumps(fit.to_json_dict()))
    return 0


def _cmd_hurwitz(args) -> int:
    profiles = [Partition.parse(p) for p in args.profile]
    value = hurwitz_number(args.d, profiles)
    payload = {
        "schema": SCHEMA,
        "d": args.d,
        "profiles": [str(p) for p in profiles],
        "count": format_rational(value),
    }
    _emit(args, payload, format_rational(value))
    return 0


def _cmd_count(args) -> int:
    value = _COUNTS[args.kind](args.d)
    payload = {"schema": SCHEMA, "kind": args.kind, "d": args.d, "count": str(value)}
    _emit(args, payload, str(value))
    return 0


def _cmd_verify(args) -> int:
    result = report.run_verification(max_d=args.max_d, order=args.N)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['check']}: {c['detail']}"
        for c in result["checks"]
    ]
    if not result["passed"]:
        lines.append(f"FIRST FAILURE: {result['first_failure']}")
    _emit(args, result, "\n".join(lines))
    return 0 if result["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delliptic",
        description="Exact d-elliptic locus classes in genus 2 and 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spaces = sorted(loci.FAMILIES)

    p_class = sub.add_parser("class", help="solved locus class in the substack basis")
    p_class.add_argument("space", choices=spaces)
    p_class.add_argument("--d", type=_int_at_least(1), required=True)
    _output_flags(p_class)
    p_class.set_defaults(fn=_cmd_class)

    p_series = sub.add_parser(
        "series", help="coefficient generating series and its quasimodular fit"
    )
    p_series.add_argument("space", choices=spaces)
    p_series.add_argument("label", help="substack coefficient label, e.g. delta_0")
    p_series.add_argument("--N", type=_int_at_least(0), default=30)
    p_series.add_argument("--weight", type=_int_at_least(0), default=6)
    _output_flags(p_series)
    p_series.set_defaults(fn=_cmd_series)

    p_fit = sub.add_parser(
        "qmod-fit", help="fit a JSON array of rational coefficients"
    )
    p_fit.add_argument("--in", dest="infile", default="-", help="file or - for stdin")
    p_fit.add_argument("--N", type=_int_at_least(0), default=None)
    p_fit.add_argument("--weight", type=_int_at_least(0), default=6)
    _output_flags(p_fit)
    p_fit.set_defaults(fn=_cmd_qmod_fit)

    p_hurwitz = sub.add_parser("hurwitz", help="brute-force branched cover count")
    p_hurwitz.add_argument("--d", type=_int_at_least(1), required=True)
    p_hurwitz.add_argument(
        "--profile",
        action="append",
        required=True,
        help="comma-separated ramification profile, repeatable (e.g. 3,1,1)",
    )
    _output_flags(p_hurwitz)
    p_hurwitz.set_defaults(fn=_cmd_hurwitz)

    p_count = sub.add_parser("count", help="structural counting oracles")
    p_count.add_argument("kind", choices=sorted(_COUNTS))
    p_count.add_argument("--d", type=_int_at_least(1), required=True)
    _output_flags(p_count)
    p_count.set_defaults(fn=_cmd_count)

    p_verify = sub.add_parser("verify", help="run the full consistency suite")
    p_verify.add_argument("--max-d", dest="max_d", type=_int_at_least(1), default=30)
    p_verify.add_argument("--N", type=_int_at_least(0), default=30)
    _output_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON on stdout")
    parser.add_argument("--out", default=None, help="write the JSON payload to a file")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CrossCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
