"""Command line front end: compute, rank, check and group subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from importlib import resources

from .errors import CapExceeded, InputError, RadonError
from .group import (
    DEFAULT_CAP,
    MatrixGroupGen,
    closure,
    default_modular_primes,
    derived_series,
    invariant_decomposition,
    modular_group_analysis,
)
from .radon import (
    check_relations,
    dump_json,
    load_fundamental_data,
    radon_rank,
    radon_transform,
    result_to_dict,
    validate,
)

_FIXTURE_PREFIX = "fixture:"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled input file, e.g. fixture_path("four_lines")."""
    if not name.endswith(".json"):
        name += ".json"
    path = resources.files("radonmono").joinpath("fixtures", name)
    if not path.is_file():
        raise InputError(f"no bundled fixture named {name!r}")
    return str(path)


def _resolve_input(value: str) -> str:
    if value.startswith(_FIXTURE_PREFIX):
        return fixture_path(value[len(_FIXTURE_PREFIX) :])
    return value


def _write_output(text: str, output: str | None):
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output file {output}: {exc.strerror}") from None


def _warn(messages):
    for msg in messages:
        print(f"warning: {msg}", file=sys.stderr)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return number


def _int_list(value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {value!r}") from None


@functools.cache  # one parser per process; each parse_args call returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radonmono",
        description="Monodromy of the Radon transform of a local system on a "
        "plane curve complement, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, verify=True):
        p.add_argument("--input", "-i", required=True, help="input JSON (or fixture:NAME)")
        p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
        if verify:  # rank computes no transform, so it has nothing to verify
            p.add_argument("--verify", action="store_true", help="enable runtime stability assertions")

    p_compute = sub.add_parser("compute", help="compute the output monodromy tuple")
    common(p_compute)

    p_rank = sub.add_parser("rank", help="print the expected output rank")
    common(p_rank, verify=False)

    p_check = sub.add_parser("check", help="validate the input and test bundled relations")
    common(p_check)

    p_group = sub.add_parser("group", help="analyze the group generated by the output tuple")
    common(p_group)
    p_group.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_CAP,
        help="largest group order to compute; the modular chain holds only orbits, "
        "so the cap bounds the order, not memory, unless --exact lists every element",
    )
    engine = p_group.add_mutually_exclusive_group()  # the exact closure uses no prime
    engine.add_argument("--primes", type=_int_list, default=None, help="comma separated modular primes")
    engine.add_argument("--exact", action="store_true", help="force the exact closure")
    return parser


def cmd_compute(args) -> int:
    fd = load_fundamental_data(_resolve_input(args.input))
    result = radon_transform(fd, verify=args.verify)
    _warn(result.validation.warnings)
    _write_output(dump_json(result_to_dict(result)), args.output)
    return 0


def cmd_rank(args) -> int:
    fd = load_fundamental_data(_resolve_input(args.input))
    _write_output(f"{radon_rank(fd)}\n", args.output)
    return 0


def cmd_check(args) -> int:
    fd = load_fundamental_data(_resolve_input(args.input))
    # relations are checked on the transform, whose moves of the words also settle vankampen_ok
    report = validate(fd, act=not fd.relations)
    result = radon_transform(fd, verify=args.verify) if report.product_ok and fd.relations else None
    if result:
        moved = result.validation.warnings  # and, last, a rank formula warning that check does not print
        report = dataclasses.replace(result.validation, warnings=moved[: len(moved) - (not result.rank_matches)])
    _warn(report.warnings)
    doc = {
        "product_ok": report.product_ok,
        "vankampen_ok": report.vankampen_ok,
        "strand_ok": report.strand_ok,
        "relations_checked": len(fd.relations),
        "relations_ok": check_relations(result.gtilde, fd.relations) if result else report.product_ok or None,
    }
    _write_output(dump_json(doc), args.output)
    return 0 if report.product_ok else 2


def cmd_group(args) -> int:
    fd = load_fundamental_data(_resolve_input(args.input))
    result = radon_transform(fd, verify=args.verify)
    _warn(result.validation.warnings)
    doc = result_to_dict(result)
    group = MatrixGroupGen.from_matrices(result.gtilde) if result.gtilde else None
    group_doc: dict = {"cap": args.cap}
    if result.dim_w == 0 or not group:
        group_doc.update({"mode": "none", "order": 1 if result.dim_w == 0 else None})
    else:
        group_doc.update({"mode": "exact" if args.exact else "modular", "status": "complete"})
        try:
            if args.exact:
                enum = closure(group, cap=args.cap)
                series = derived_series(enum)
                analysis = {"order": enum.order, "derived_series": series, "solvable": series[-1] == 1}
                if enum.matrices:  # those that enlarged the enumeration generate the same group
                    group = MatrixGroupGen(group.spec, group.degree, tuple(enum.matrices))
            else:
                primes = args.primes or default_modular_primes(group)
                analysis = modular_group_analysis(group, primes, cap=args.cap)
        except CapExceeded:
            analysis = {"status": "cap_exceeded", "order": None}
        group_doc.update(analysis)  # a status already set keeps its place among the keys
    if group:
        group_doc["decomposition"] = invariant_decomposition(group)
    doc["group"] = group_doc
    _write_output(dump_json(doc), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "rank": cmd_rank,
        "check": cmd_check,
        "group": cmd_group,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RadonError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
