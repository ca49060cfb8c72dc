"""Command-line front end.

    germlab check <subject>
    germlab analyze <subject>
    germlab germs <subject> --action universal|tight [--dot FILE]
    germlab verify <subject> --suite universal|tight|extension|algebra|all [--csv FILE]
    germlab example <name> [--emit json]

A subject is a semigroup JSON file, ``builtin:<name>``, or (for verify)
``corpus``.  Exit codes: 0 all checks pass, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .actions import domains_form_base, germ_groupoid, tight_action, universal_action
from .builtins import builtin, corpus
from .congruences import UnionFind, is_cryptic, is_fundamental
from .errors import StructureError, ZeroRequired
from .groupoids import (
    is_effective,
    is_essentially_principal,
    is_group_bundle,
    iso_bundle,
    iso_interior,
)
from .io import export_dot, load_semigroup, save_semigroup
from .semigroups import (
    InverseSemigroup,
    h_classes,
    idempotents,
    is_clifford,
    is_e_unitary,
    is_zero_e_unitary,
)
from .semilattices import all_filters, is_zero_disjunctive, semilattice_of, ultrafilters
from .suites import SUITE_NAMES, global_reports, render_reports, run_suite

PASS, CHECK_FAILURE, INPUT_ERROR = 0, 1, 2


def _load_subject(subject: str) -> tuple[str, InverseSemigroup]:
    if subject.startswith("builtin:"):
        name = subject[len("builtin:"):]
        return name, builtin(name)
    return subject, load_semigroup(subject)


def _d_classes(S: InverseSemigroup) -> int:
    """Number of Green's D classes: blocks of the join of L (same s*s) and R (same ss*)."""
    sets = UnionFind(S.size)
    first: dict[tuple[str, int], int] = {}
    for s in S.elements():
        for key in (("L", S.mul(S.inv[s], s)), ("R", S.mul(s, S.inv[s]))):
            sets.union(first.setdefault(key, s), s)
    return len(sets.blocks())


def cmd_check(args) -> int:
    name, S = _load_subject(args.subject)
    print(f"{name}: valid inverse semigroup with {S.size} elements, "
          f"{len(idempotents(S))} idempotents"
          + (f", zero at index {S.zero}" if S.zero is not None else ", no zero"))
    return PASS


def cmd_analyze(args) -> int:
    name, S = _load_subject(args.subject)
    E = semilattice_of(S)
    rows = [
        ("subject", name),
        ("elements", S.size),
        ("idempotents", E.size),
        ("zero", S.label(S.zero) if S.zero is not None else "none"),
        ("clifford", is_clifford(S)),
        ("cryptic", is_cryptic(S)),
        ("fundamental", is_fundamental(S)),
        ("e_unitary", is_e_unitary(S)),
    ]
    try:
        rows.append(("zero_e_unitary", is_zero_e_unitary(S)))
    except ZeroRequired:
        rows.append(("zero_e_unitary", "n/a (no zero)"))
    try:
        rows.append(("zero_disjunctive", is_zero_disjunctive(E)))
    except ZeroRequired:
        rows.append(("zero_disjunctive", "n/a (no zero)"))
    rows += [
        ("hausdorff", "true (finite: lower sets finitely generated)"),
        ("filters", len(all_filters(E))),
        ("ultrafilters", len(ultrafilters(E))),
        ("h_classes", len(h_classes(S))),
        ("d_classes", _d_classes(S)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    return PASS


def cmd_germs(args) -> int:
    name, S = _load_subject(args.subject)
    action = universal_action(S) if args.action == "universal" else tight_action(S)
    germs = germ_groupoid(action)
    G = germs.groupoid
    iso = iso_bundle(G)
    inner = iso_interior(G)
    print(f"{name}: {args.action} groupoid of germs")
    print(f"arrows            {G.n_arrows}")
    print(f"units             {len(G.units)}")
    print(f"isotropy          {len(iso)}")
    print(f"isotropy interior {len(inner)}")
    print(f"group_bundle      {is_group_bundle(G)}")
    print(f"effective         {is_effective(G)}")
    print(f"ess_principal     {is_essentially_principal(G)}")
    print(f"domains_form_base {domains_form_base(action)}")
    print(f"basis_sets        {len(G.basis)}"
          + ("" if G.basis_declared else " (discrete default)"))
    if args.dot:
        export_dot(G, args.dot)
        print(f"dot written to {args.dot}")
    return PASS


def cmd_verify(args) -> int:
    csv_rows: list[str] | None = [] if args.csv else None
    if args.subject == "corpus":
        reports = global_reports(args.suite)
        for name, S in corpus():
            reports += run_suite(name, S, args.suite, csv_rows)
    else:
        name, S = _load_subject(args.subject)
        reports = run_suite(name, S, args.suite, csv_rows)
    sys.stdout.write(render_reports(reports))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("subject,check,sample,norm_sq,norm_star,deviation\n")
            for row in csv_rows or []:
                fh.write(row + "\n")
    return PASS if all(r.passed for r in reports) else CHECK_FAILURE


def cmd_example(args) -> int:
    S = builtin(args.name)
    if args.emit == "json":
        json.dump({"labels": list(S.labels), "table": S.table.tolist()},
                  sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        print(f"{args.name}: {S.size} elements, {len(idempotents(S))} idempotents")
        if args.out:
            save_semigroup(S, args.out)
            print(f"written to {args.out}")
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="finite inverse semigroups, their germ groupoids, "
                    "and the associated convolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a semigroup document")
    p.add_argument("subject")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("analyze", help="print the structural predicates")
    p.add_argument("subject")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("germs", help="build a groupoid of germs")
    p.add_argument("subject")
    p.add_argument("--action", choices=("universal", "tight"), default="universal")
    p.add_argument("--dot", metavar="FILE", default=None)
    p.set_defaults(fn=cmd_germs)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("subject", help="file, builtin:<name>, or 'corpus'")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="write the algebra suite's norm samples as CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="construct a built-in example")
    p.add_argument("name")
    p.add_argument("--emit", choices=("json",), default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(fn=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
