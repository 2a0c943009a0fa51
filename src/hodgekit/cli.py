"""Single executable exposing every module with JSON in/out.

Exit codes: 0 success, 2 bad input, 3 negative verdict (not realizable,
a verification failed, classification refused), 4 invariant violation
(and, for the realizable subcommand, an invalid profile).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import classifier, cmtools, consequences, numth, rootsys
from .classifier import (
    NotRealizableError,
    SubfieldDescriptor,
    classify,
    table3,
)
from .consequences import AbelianProfile, hodge_status, murty_equal
from .core import (
    GroupExpr,
    HodgeProfile,
    InvalidProfileError,
    _require_int,
    profile_from_json,
    validate_profile,
)
from .lefschetz import group_dim, group_rank, lefschetz_group
from .realizability import realizable

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _read_json(path: Optional[str]):
    if path in (None, "-"):
        text = sys.stdin.read()
        where = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}")
        where = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {where} at line {exc.lineno} column "
            f"{exc.colno} (char {exc.pos}): {exc.msg}"
        )


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _load_profile(path: Optional[str]) -> HodgeProfile:
    data = _read_json(path)
    try:
        return profile_from_json(data)
    except ValueError as exc:
        raise CliError(f"bad profile: {exc}")


def _load_subfields(path: Optional[str]):
    if path is None:
        return None
    data = _read_json(path)
    if not isinstance(data, list):
        raise CliError("subfields file must hold a JSON list")
    try:
        return [SubfieldDescriptor.from_json(item) for item in data]
    except ValueError as exc:
        raise CliError(f"bad subfield entry: {exc}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    profile = _load_profile(args.profile)
    violations = validate_profile(profile)
    _emit(
        {
            "valid": not violations,
            "violations": [v.to_json() for v in violations],
        },
        args.pretty,
    )
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_realizable(args) -> int:
    profile = _load_profile(args.profile)
    verdict = realizable(profile)
    _emit(verdict.to_json(), args.pretty)
    if verdict.violations:
        return EXIT_INVARIANT
    return EXIT_OK if verdict.realizable is True else EXIT_NEGATIVE


def _cmd_lefschetz(args) -> int:
    profile = _load_profile(args.profile)
    try:
        group = lefschetz_group(profile)
    except InvalidProfileError as exc:
        raise CliError(f"invalid profile: {exc}")
    _emit(
        {
            "group": group.to_json(),
            "dim": group_dim(group),
            "rank": group_rank(group),
        },
        args.pretty,
    )
    return EXIT_OK


def _render_table3_markdown(rows) -> str:
    lines = [
        "| L | [L:Q] | Odd weight | Even weight | Equals Lefschetz? |",
        "|---|------:|------------|-------------|-------------------|",
    ]
    for row in rows:
        odd = row["odd"]["label"] if row["odd"] else "-"
        even = row["even"]["label"] if row["even"] else "-"
        lef = "yes" if row["equals_lefschetz"] else "no"
        lines.append(
            f"| Type {row['albert_type']} | {row['deg_L']} | {odd} | {even} | {lef} |"
        )
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    if args.table3:
        rows = table3()
        if args.pretty:
            print(_render_table3_markdown(rows))
        else:
            _emit({"rows": rows}, False)
        return EXIT_OK
    profile = _load_profile(args.profile)
    subfields = _load_subfields(args.subfields)
    try:
        outcome = classify(profile, subfields)
    except NotRealizableError as exc:
        _emit({"error": "not_realizable", "detail": str(exc)}, args.pretty)
        return EXIT_NEGATIVE
    except ValueError as exc:
        # inconsistent subfields, or an n beyond the exact primality bound
        raise CliError(str(exc))
    _emit(outcome.to_json(), args.pretty)
    return EXIT_OK


def _parse_kind_rank(kind: str, rank: int) -> rootsys.RootSystem:
    try:
        return rootsys.RootSystem(kind.upper(), rank)
    except ValueError as exc:
        raise CliError(str(exc))


def _parse_coords(text: str, rank: int) -> rootsys.Weight:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"bad weight coordinates {text!r}")
    if len(coords) != rank:
        raise CliError(f"expected {rank} coordinates, got {len(coords)}")
    return rootsys.Weight(coords)


def _cmd_weights(args) -> int:
    if args.weights_cmd == "verify-table2":
        if args.max_rank > rootsys.MAX_RANK:
            raise CliError(
                f"--max-rank {args.max_rank} is over the cap "
                f"MAX_RANK = {rootsys.MAX_RANK} for root systems"
            )
        systems: list[rootsys.RootSystem] = []
        for kind in ("A", "B", "C", "D"):
            lo = {"A": 1, "B": 2, "C": 2, "D": 3}[kind]
            for rank in range(lo, args.max_rank + 1):
                systems.append(rootsys.RootSystem(kind, rank))
        systems.append(rootsys.RootSystem("E", 6))
        systems.append(rootsys.RootSystem("E", 7))
        reports = [rootsys.verify_minuscule_table(rs) for rs in systems]
        ok = all(r["ok"] for r in reports)
        if args.pretty:
            for r in reports:
                print(f"{'PASS' if r['ok'] else 'FAIL'} {r['system']}")
        else:
            _emit({"ok": ok, "rows": reports}, False)
        return EXIT_OK if ok else EXIT_NEGATIVE
    rs = _parse_kind_rank(args.kind, args.rank)
    weight = _parse_coords(args.coords, rs.rank)
    if args.weights_cmd == "dim":
        try:
            value = rootsys.rep_dimension(rs, weight)
        except ValueError as exc:
            raise CliError(str(exc))
        _emit({"system": rs.name, "dim": value}, args.pretty)
        return EXIT_OK
    if args.weights_cmd == "autodual":
        try:
            value = rootsys.autoduality(rs, weight)
        except ValueError as exc:
            raise CliError(str(exc))
        _emit({"system": rs.name, "autoduality": value}, args.pretty)
        return EXIT_OK
    try:
        length = rootsys.weight_length(rs, weight)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(
        {
            "system": rs.name,
            "length": {"num": length.numerator, "den": length.denominator},
        },
        args.pretty,
    )
    return EXIT_OK


def _build_model(args) -> cmtools.GaloisModel:
    spec = args.group
    try:
        if spec.startswith("cyclic:"):
            size = int(spec.split(":", 1)[1])
            model = cmtools.cyclic_model(size)
        elif spec.startswith("dihedral:"):
            model = cmtools.dihedral_model(int(spec.split(":", 1)[1]))
        elif spec.startswith("abelian:"):
            dims = [int(x) for x in spec.split(":", 1)[1].split(",")]
            model = cmtools.abelian_model(dims)
        elif spec.startswith("perms:"):
            _, size_text, gens_text = spec.split(":", 2)
            size = int(size_text)
            gens = tuple(
                cmtools.parse_cycles(g, size)
                for g in gens_text.split(";")
                if g.strip()
            )
            if args.iota in (None, "auto"):
                raise CliError("explicit --iota required with perms: groups")
            conj = cmtools.parse_cycles(args.iota, size)
            return cmtools.GaloisModel(generators=gens, conj=conj, size=size)
        else:
            raise CliError(f"unknown group spec {spec!r}")
    except (ValueError, cmtools.InvalidModelError) as exc:
        raise CliError(str(exc))
    if args.iota not in (None, "auto"):
        try:
            conj = cmtools.parse_cycles(args.iota, model.size)
            model = cmtools.GaloisModel(
                generators=model.generators, conj=conj, size=model.size
            )
        except (ValueError, cmtools.InvalidModelError) as exc:
            raise CliError(str(exc))
    return model


def _parse_theta(text: str, model: cmtools.GaloisModel) -> cmtools.CMType:
    try:
        theta = cmtools.CMType(frozenset(int(x) for x in text.split(",")))
        cmtools.check_cm_type(model, theta)
    except (ValueError, cmtools.InvalidModelError) as exc:
        raise CliError(str(exc))
    return theta


def _cmd_cm(args) -> int:
    model = _build_model(args)
    if args.cm_cmd == "scan":
        try:
            report = cmtools.tankeev_scan(model)
        except cmtools.InvalidModelError as exc:
            raise CliError(str(exc))
        _emit(report.to_json(), args.pretty)
        return EXIT_OK
    theta = _parse_theta(args.theta, model)
    if args.cm_cmd == "rank":
        raw, reduced = cmtools.kubota_rank(model, theta)
        payload = {"theta": theta.to_json(), "raw": raw, "reduced": reduced}
        if args.invariants:
            from .intlinalg import smith_normal_form

            payload["invariant_factors"] = smith_normal_form(
                cmtools.translate_lattice(model, theta)
            )
        _emit(payload, args.pretty)
        return EXIT_OK
    primitive = cmtools.is_primitive(model, theta)
    _emit({"theta": theta.to_json(), "primitive": primitive}, args.pretty)
    return EXIT_OK if primitive else EXIT_NEGATIVE


def _cmd_numth(args) -> int:
    k_max = args.k_max
    if k_max < 3:
        raise CliError(f"--k-max must be at least 3, got {k_max}")
    depolignac = all(
        numth.factorial_two_adic(1 << (k - 1)) == (1 << (k - 1)) - 1
        for k in range(3, k_max + 1)
    )
    binom_mod4 = all(
        (numth.central_binomial_mod4(z) == 2) == (z & (z - 1) == 0)
        for z in range(1, 4097)
    )
    composite_ok, witnesses = numth.no_prime_double_is_central_binomial(k_max)
    gaps = {k: numth.prime_count_gap(k) for k in range(3, k_max + 1)}
    gaps_ok = all(v >= 2 for v in gaps.values())
    ok = depolignac and binom_mod4 and composite_ok and gaps_ok
    _emit(
        {
            "ok": ok,
            "factorial_two_adic": depolignac,
            "central_binomial_mod4": binom_mod4,
            "halved_central_binomials_composite": composite_ok,
            "composite_witnesses": {str(k): v for k, v in witnesses.items()},
            "prime_count_gaps": {str(k): v for k, v in gaps.items()},
        },
        args.pretty,
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_abelian(args) -> int:
    data = _read_json(args.profile)
    if not isinstance(data, dict):
        raise CliError("abelian profile must be a JSON object")
    extra = set(data) - {"dim", "endo", "subfields"}
    if extra:
        raise CliError(f"unknown abelian fields: {sorted(extra)}")
    try:
        dim = _require_int(data["dim"], "dim")
        endo_profile = profile_from_json(
            {"weight": 1, "n": dim, "endo": data["endo"]}
        )
        subs = [
            SubfieldDescriptor.from_json(s) for s in data.get("subfields", [])
        ]
        ap = AbelianProfile(
            dim=dim, endo=endo_profile.endo, subfields=tuple(subs)
        )
    except (KeyError, ValueError, InvalidProfileError) as exc:
        raise CliError(str(exc))
    equal, rationale = murty_equal(ap)
    status = hodge_status(ap)
    _emit(
        {
            "murty_equal": equal,
            "murty_rationale": rationale,
            "status": status.to_json(),
        },
        args.pretty,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgekit",
        description=(
            "classification of Hodge groups for simple polarizable "
            "structures of extreme bidegree, with exact verification tools"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="human-readable output"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_profile(p):
        p.add_argument(
            "--profile",
            default=None,
            help="JSON profile file ('-' or omitted reads stdin)",
        )

    p = sub.add_parser(
        "validate", parents=[common], help="structural validation of a profile"
    )
    add_profile(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("realizable", parents=[common], help="realizability verdict")
    add_profile(p)
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser(
        "lefschetz", parents=[common], help="the Lefschetz group of a profile"
    )
    add_profile(p)
    p.set_defaults(func=_cmd_lefschetz)

    p = sub.add_parser(
        "classify", parents=[common], help="possible Hodge groups of a profile"
    )
    add_profile(p)
    p.add_argument("--subfields", default=None, help="JSON subfield list file")
    p.add_argument(
        "--table3",
        action="store_true",
        help="emit the full n=4 grid instead of classifying one profile",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("weights", help="root-system and minuscule-weight tools")
    wsub = p.add_subparsers(dest="weights_cmd", required=True)
    v = wsub.add_parser(
        "verify-table2", parents=[common], help="check the minuscule table"
    )
    v.add_argument("--max-rank", type=int, default=10)
    for name in ("dim", "autodual", "length"):
        w = wsub.add_parser(name, parents=[common])
        w.add_argument("kind", help="A, B, C, D or E")
        w.add_argument("rank", type=int)
        w.add_argument("coords", help="comma-separated fundamental coordinates")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("cm", help="CM-type ranks and primitivity")
    p.add_argument(
        "--group",
        required=True,
        help="cyclic:N | dihedral:N | abelian:d1,d2,... | perms:N:(cycles);(cycles)",
    )
    p.add_argument(
        "--iota",
        default="auto",
        help="conjugation in cycle notation (default: the canonical one)",
    )
    csub = p.add_subparsers(dest="cm_cmd", required=True)
    csub.add_parser(
        "scan", parents=[common], help="rank/primitivity table over all CM types"
    )
    r = csub.add_parser("rank", parents=[common], help="Kubota ranks of one CM type")
    r.add_argument("--theta", required=True, help="comma-separated embeddings")
    r.add_argument(
        "--invariants",
        action="store_true",
        help="also report the invariant factors of the translate lattice",
    )
    pr = csub.add_parser(
        "primitive", parents=[common], help="primitivity of one CM type"
    )
    pr.add_argument("--theta", required=True)
    p.set_defaults(func=_cmd_cm)

    p = sub.add_parser("numth", help="number-theoretic verification")
    nsub = p.add_subparsers(dest="numth_cmd", required=True)
    v = nsub.add_parser("verify", parents=[common], help="run all arithmetic checks")
    v.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=_cmd_numth)

    p = sub.add_parser("abelian", help="consequences for abelian varieties")
    asub = p.add_subparsers(dest="abelian_cmd", required=True)
    s = asub.add_parser(
        "status", parents=[common], help="divisor/Weil and conjecture status"
    )
    s.add_argument("--profile", default=None)
    p.set_defaults(func=_cmd_abelian)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
