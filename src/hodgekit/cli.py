"""Single executable exposing every module with JSON in/out.

Exit codes: 0 success, 2 bad input, 3 negative verdict (not realizable,
a verification failed, classification refused), 4 invariant violation
(and, for the realizable subcommand, an invalid profile).  An unconfirmed
verdict (``"realizable": null``) exits 0, as ``classify`` does on it.

Each subcommand ``_cmd_*`` takes the parsed arguments and returns
``(payload, exit_code)``; it neither prints nor maps errors, save that
``classify`` answers a ``NotRealizableError`` with its exit-3 JSON.
``run`` is the one place that does both.  It prints the payload as
compact JSON, with ``indent=2`` under ``--pretty``, or as it is when the
payload is a ``str`` (the ``--pretty`` text of ``classify --table3`` and
of ``weights verify-table2``).  It maps errors in this order: a
``BrokenPipeError`` ends with exit 0, an ``AssertionError`` (a broken
internal invariant) with exit 4, and a ``ValueError`` (bad input; the
package's ``InvalidProfileError``, ``InvalidModelError`` and
``InconsistentSubfieldError`` all derive from it) with
``error: <message>`` on stderr and exit 2.  Bad input is refused by two
readers: JSON objects by ``core._require_object``, and every number in
argv by ``_ints``, which takes ASCII ``-?[0-9]+`` only (argparse converts
no number; ``_cycles`` reads cycle notation by the same rule, unsigned).
Past the readers, every number meets the package's one integer rule,
``numth._require_int``.

Each subcommand imports the engine it calls when it runs, so a one-shot
process loads only its own subcommand's modules: ``numth verify`` never
loads the classifier, and ``classify`` never loads ``rootsys`` or
``cmtools``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from . import cmtools, rootsys
    from .classifier import SubfieldDescriptor

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_INVARIANT = 4


def _read_json(path: Optional[str]):
    if path in (None, "-"):
        text = sys.stdin.read()
        where = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
        where = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {where} at line {exc.lineno} column "
            f"{exc.colno} (char {exc.pos}): {exc.msg}"
        ) from None
    except RecursionError:
        raise ValueError(f"JSON in {where} nests too deeply to read") from None
    except ValueError:  # an int past the interpreter's limit on reading one
        message = f"a number of more than {sys.get_int_max_str_digits()} digits"
        raise ValueError(f"JSON in {where}: {message}") from None


def _subfields(data) -> list[SubfieldDescriptor]:
    """The subfield list of ``classify --subfields`` and ``abelian status``."""
    from .classifier import SubfieldDescriptor

    if not isinstance(data, list):
        raise ValueError("subfields must be a JSON list")
    return [SubfieldDescriptor.from_json(item) for item in data]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args):
    from .core import profile_from_json, validate_profile

    violations = validate_profile(profile_from_json(_read_json(args.profile)))
    payload = {
        "valid": not violations,
        "violations": [v.to_json() for v in violations],
    }
    return payload, EXIT_NEGATIVE if violations else EXIT_OK


def _cmd_realizable(args):
    from .core import profile_from_json
    from .realizability import realizable

    verdict = realizable(profile_from_json(_read_json(args.profile)))
    code = EXIT_NEGATIVE if verdict.realizable is False else EXIT_OK
    return verdict.to_json(), EXIT_INVARIANT if verdict.violations else code


def _cmd_lefschetz(args):
    from .core import profile_from_json
    from .lefschetz import group_dim, group_rank, lefschetz_group

    group = lefschetz_group(profile_from_json(_read_json(args.profile)))
    payload = {
        "group": group.to_json(),
        "dim": group_dim(group),
        "rank": group_rank(group),
    }
    return payload, EXIT_OK


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


def _cmd_classify(args):
    from .classifier import NotRealizableError, classify, table3
    from .core import profile_from_json

    if args.table3:
        rows = table3()
        payload = _render_table3_markdown(rows) if args.pretty else {"rows": rows}
        return payload, EXIT_OK
    profile = profile_from_json(_read_json(args.profile))
    subfields = None
    if args.subfields is not None:
        subfields = _subfields(_read_json(args.subfields))
    try:
        return classify(profile, subfields).to_json(), EXIT_OK
    except NotRealizableError as exc:
        return {"error": "not_realizable", "detail": str(exc)}, EXIT_NEGATIVE


def _ints(
    text: str, name: str, complaint: str, count: Optional[int] = None
) -> list[int]:
    """The comma-separated integers of argv ``text`` in the slot ``name``,
    each written as ASCII ``-?[0-9]+``, and ``count`` of them if given;
    else ``complaint``.  ``int()`` alone would also take a ``+``, an
    ``_``, blanks and non-ASCII digits."""
    items = text.split(",")
    if count not in (None, len(items)) or not all(
        re.fullmatch("-?[0-9]+", x) for x in items
    ):
        raise ValueError(complaint)
    return _digits(items, name)


def _digits(items: list[str], name: str) -> list[int]:
    """``int`` of each checked numeral in ``items``, refusing one past the
    interpreter's limit on reading an int by the slot's ``name`` and the
    limit: the numeral, thousands of digits long, is not echoed."""
    try:
        return [int(x) for x in items]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{name}: a number of more than {limit} digits") from None


def _int(text: str, name: str) -> int:
    """The one argv number ``text`` of the slot ``name``, read by ``_ints``."""
    return _ints(text, name, f"{name} must be an integer, got {text!r}", 1)[0]


def _cmd_weights(args):
    from . import rootsys

    if args.weights_cmd == "verify-table2":
        max_rank = _int(args.max_rank, "--max-rank")
        if max_rank < 1:
            raise ValueError(f"--max-rank must be at least 1, got {max_rank}")
        rootsys._check_rank_cap(max_rank)
        specs = [
            (kind, rank)
            for kind, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
            for rank in range(lo, max_rank + 1)
        ]
        specs += [("E", 6), ("E", 7)]
        # one system alive at a time: its roots are garbage once verified
        reports = [
            rootsys.verify_minuscule_table(rootsys.RootSystem(*spec)) for spec in specs
        ]
        ok = all(r["ok"] for r in reports)
        lines = [f"{'PASS' if r['ok'] else 'FAIL'} {r['system']}" for r in reports]
        payload = "\n".join(lines) if args.pretty else {"ok": ok, "rows": reports}
        return payload, EXIT_OK if ok else EXIT_NEGATIVE
    rs = rootsys.RootSystem(args.kind.upper(), _int(args.rank, "rank"))
    bad = f"bad weight coordinates {args.coords!r}"
    weight = rootsys.Weight(_ints(args.coords, "weight coordinates", bad))
    if args.weights_cmd == "dim":
        key, value = "dim", rootsys.rep_dimension(rs, weight)
    elif args.weights_cmd == "autodual":
        key, value = "autoduality", rootsys.autoduality(rs, weight)
    else:
        key, value = "length", {"num": rootsys.weight_length(rs, weight), "den": 1}
    return {"system": rs.name, key: value}, EXIT_OK


def _cycles(text: str, size: int, flag: str) -> cmtools.Perm:
    """The permutation of ``size`` points that ``flag`` writes in disjoint
    cycle notation, like "(0 3)(1 4)(2 5)"; each refusal names the flag.  An
    entry is ASCII ``[0-9]+``: ``_ints``' rule without the sign."""
    from . import cmtools

    try:
        cmtools._check_degree(size)
        out = list(range(size))
        body = text.strip()
        if body in ("", "()", "id"):
            return tuple(out)
        if body.count("(") != body.count(")"):
            raise ValueError(f"unbalanced cycle notation: {text!r}")
        chunks = [c for c in body.replace(")", ")|").split("|") if c.strip()]
        seen: set[int] = set()
        for chunk in chunks:
            chunk = chunk.strip()
            items = chunk[1:-1].replace(",", " ").split()
            shaped = chunk.startswith("(") and chunk.endswith(")")
            if not shaped or not all(re.fullmatch("[0-9]+", x) for x in items):
                raise ValueError(f"bad cycle chunk {chunk!r}")
            cycle = _digits(items, "cycle entry")
            if any(not 0 <= x < size for x in cycle):
                raise ValueError(f"cycle entry out of range in {chunk!r}")
            if len(set(cycle)) != len(cycle) or seen & set(cycle):
                raise ValueError(f"repeated point in cycles: {text!r}")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                out[a] = b
        return tuple(out)
    except ValueError as exc:
        # a number past the limit names the flag alone, not the spec holding it
        where = flag.split()[0] if str(exc).startswith("cycle entry:") else flag
        raise ValueError(f"{exc} in {where}") from None


def _build_model(args) -> cmtools.GaloisModel:
    from . import cmtools

    family, _, rest = args.group.partition(":")
    if family == "perms":
        rest, colon, gens_text = rest.partition(":")
        if not colon:
            raise ValueError(f"no generator list in --group {args.group!r}")
    elif family not in ("cyclic", "dihedral", "abelian"):
        raise ValueError(f"unknown group spec {args.group!r}")
    bad = f"bad numbers {rest!r} in --group {args.group!r}"
    numbers = _ints(rest, "--group", bad, None if family == "abelian" else 1)
    if family == "perms":
        size = numbers[0]
        flag = f"--group {args.group!r}"
        gens = tuple(_cycles(g, size, flag) for g in gens_text.split(";") if g.strip())
        if args.iota == "auto":
            raise ValueError("explicit --iota required with perms: groups")
    else:
        if family == "dihedral":
            model = cmtools.dihedral_model(numbers[0])
        else:  # cyclic:N is abelian:N
            model = cmtools.abelian_model(numbers)
        if args.iota == "auto":
            return model
        gens, size = model.generators, model.size
    conj = _cycles(args.iota, size, "--iota")
    return cmtools.GaloisModel(generators=gens, conj=conj, size=size)


def _cmd_cm(args):
    from . import cmtools
    from .intlinalg import smith_normal_form

    model = _build_model(args)
    if args.cm_cmd == "scan":
        return cmtools.tankeev_scan(model).to_json(), EXIT_OK
    theta = _ints(args.theta, "--theta", f"bad embeddings {args.theta!r} in --theta")
    try:  # CMType refuses a repeated embedding
        theta = cmtools.CMType(theta)
    except ValueError as exc:
        raise ValueError(f"{exc} in --theta") from None
    if args.cm_cmd == "primitive":
        primitive = cmtools.is_primitive(model, theta)
        payload = {"theta": theta.to_json(), "primitive": primitive}
        return payload, EXIT_OK if primitive else EXIT_NEGATIVE
    raw, reduced = cmtools.kubota_rank(model, theta)
    payload = {"theta": theta.to_json(), "raw": raw, "reduced": reduced}
    if args.invariants:
        lattice = cmtools.translate_lattice(model, theta)
        payload["invariant_factors"] = smith_normal_form(lattice)
    return payload, EXIT_OK


def _cmd_numth(args):
    from . import numth

    k_max = _int(args.k_max, "--k-max")
    if k_max < 3:
        raise ValueError(f"--k-max must be at least 3, got {k_max}")
    numth._check_verify_cap(k_max)
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
    payload = {
        "ok": ok,
        "factorial_two_adic": depolignac,
        "central_binomial_mod4": binom_mod4,
        "halved_central_binomials_composite": composite_ok,
        "composite_witnesses": {str(k): v for k, v in witnesses.items()},
        "prime_count_gaps": {str(k): v for k, v in gaps.items()},
    }
    return payload, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_abelian(args):
    from .consequences import AbelianProfile, hodge_status, murty_equal
    from .core import _endo_from_json, _require_object

    data = _read_json(args.profile)
    _require_object(data, "abelian profile", (), ("dim", "endo", "subfields"))
    endo = _endo_from_json(data.get("endo"))
    ap = AbelianProfile(data.get("dim"), endo, _subfields(data.get("subfields", [])))
    equal, rationale = murty_equal(ap)
    payload = {
        "murty_equal": equal,
        "murty_rationale": rationale,
        "status": hodge_status(ap).to_json(),
    }
    return payload, EXIT_OK


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
    v.add_argument("--max-rank", default="10")
    for name in ("dim", "autodual", "length"):
        w = wsub.add_parser(name, parents=[common])
        # argparse takes "-1,0" for an option, not the coordinates, unless
        # it counts as a number; no option of this parser starts "-<digit>"
        w._negative_number_matcher = re.compile("-[0-9]")
        w.add_argument("kind", help="A, B, C, D or E")
        w.add_argument("rank")
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
    v.add_argument("--k-max", default="10")
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
        payload, code = args.func(args)
        if not isinstance(payload, str):
            style = {"indent": 2} if args.pretty else {"separators": (",", ":")}
            payload = json.dumps(payload, **style)
        print(payload)
    except BrokenPipeError:
        return EXIT_OK
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
