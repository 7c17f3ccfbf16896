"""Command-line interface.

Commands: verify, report, zoo, dual, tensor.

Exit codes (stable contract):
  0  success / every selected check passed
  1  a mathematical check failed (axioms, antipode cross-check, any
     named report check) — the input is not what it claims to be
  2  malformed input file or bad parameters
  3  the working cyclotomic field is too small (an eigenvalue does not
     split); the message names the order to lift to

File format (UTF-8 JSON, canonical form round-trips byte-identically):
  {
    "name": str,
    "dim": int,
    "cyclotomic_order": int,
    "basis": [label, ...],                       # dim labels
    "mult": [[i, j, k, scalar], ...],            # e_i e_j has e_k coeff
    "comult": [[i, j, k, scalar], ...],          # Delta(e_i) has e_j (x) e_k
    "unit": [scalar, ...],                       # dense, length dim
    "counit": [scalar, ...],                     # dense, length dim
    "antipode": [[scalar, ...], ...]             # optional; row i = S(e_i)
  }
  where scalar is a bare integer or {"num": [a0, ...], "den": d} meaning
  (sum a_t zeta^t) / d.  Sparse entries are sorted by (i, j, k); zero
  entries are omitted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclofield import scalar_from_json, scalar_to_json
from .errors import (BadParameters, BoundExceeded, EigenvalueNotInField,
                     HopfForgeError, MalformedFile, MalformedTensor,
                     NoAntipode, NonSplitting, NotAGroup, OrderMismatch)
from .hopf import HopfPresentation, check_axioms, compute_antipode, dual, \
    lift_order
from .integrals import integral_pair
from .invariants import CHECK_TAGS, build_report, selects
from .linalg import Mat
from .zoo import (build_cyclic_group_algebra, build_group_algebra,
                  build_taft, build_tensor, cyclic_table,
                  direct_product_table, sweedler)

_DOC_KEYS = ("name", "dim", "cyclotomic_order", "basis", "mult", "comult",
             "unit", "counit", "antipode")


# -- file format ---------------------------------------------------------------


def presentation_to_document(h: HopfPresentation) -> dict:
    mult = []
    for i in range(h.dim):
        for j in range(h.dim):
            for k in sorted(h.mult[i][j]):
                mult.append([i, j, k, scalar_to_json(h.mult[i][j][k])])
    comult = []
    for i in range(h.dim):
        for (j, k) in sorted(h.comult[i]):
            comult.append([i, j, k, scalar_to_json(h.comult[i][(j, k)])])
    doc = {
        "name": h.name,
        "dim": h.dim,
        "cyclotomic_order": h.order,
        "basis": list(h.basis),
        "mult": mult,
        "comult": comult,
        "unit": [scalar_to_json(c) for c in h.unit],
        "counit": [scalar_to_json(c) for c in h.counit],
    }
    if h.antipode is not None:
        doc["antipode"] = [[scalar_to_json(c) for c in h.antipode.col(i)]
                           for i in range(h.dim)]
    return doc


def document_to_presentation(doc) -> HopfPresentation:
    if not isinstance(doc, dict):
        raise MalformedFile("top level must be an object")
    unknown = set(doc) - set(_DOC_KEYS)
    if unknown:
        raise MalformedFile(f"unknown keys {sorted(unknown)}")
    for key in ("name", "dim", "cyclotomic_order", "basis", "mult", "comult",
                "unit", "counit"):
        if key not in doc:
            raise MalformedFile(f"missing key {key!r}")
    name, dim, order = doc["name"], doc["dim"], doc["cyclotomic_order"]
    if not isinstance(name, str):
        raise MalformedFile("name must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MalformedFile("dim must be a positive integer")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise MalformedFile("cyclotomic_order must be a positive integer")
    basis = doc["basis"]
    if not (isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis)):
        raise MalformedFile("basis must be a list of dim labels")

    def scalar(obj, where):
        try:
            return scalar_from_json(obj, order)
        except (HopfForgeError, ValueError, TypeError, KeyError) as exc:
            raise MalformedFile(f"bad scalar in {where}: {exc}") from exc

    def entries(key):
        raw = doc[key]
        if not isinstance(raw, list):
            raise MalformedFile(f"{key} must be a list of entries")
        out = []
        for pos, entry in enumerate(raw):
            if not (isinstance(entry, list) and len(entry) == 4
                    and all(isinstance(t, int) and not isinstance(t, bool)
                            for t in entry[:3])):
                raise MalformedFile(
                    f"{key}[{pos}] must be [i, j, k, scalar]")
            out.append((*entry[:3], scalar(entry[3], f"{key}[{pos}]")))
        return out

    def dense(key):
        raw = doc[key]
        if not (isinstance(raw, list) and len(raw) == dim):
            raise MalformedFile(f"{key} must be a list of dim scalars")
        return tuple(scalar(c, key) for c in raw)

    antipode = None
    if "antipode" in doc:
        raw = doc["antipode"]
        if not (isinstance(raw, list) and len(raw) == dim
                and all(isinstance(r, list) and len(r) == dim for r in raw)):
            raise MalformedFile("antipode must be a dim x dim array of rows")
        cols = [[scalar(c, f"antipode[{i}]") for c in row]
                for i, row in enumerate(raw)]
        antipode = Mat.from_cols(order, cols, rows_n=dim)
    try:
        return HopfPresentation(
            name=name, dim=dim, order=order, mult_entries=entries("mult"),
            comult_entries=entries("comult"), unit=dense("unit"),
            counit=dense("counit"), antipode=antipode, basis=tuple(basis))
    except MalformedTensor as exc:
        raise MalformedFile(str(exc)) from exc


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()


def load_presentation(path: str) -> HopfPresentation:
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc
    return document_to_presentation(doc)


def _emit(data: bytes, out: str | None):
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


# -- commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    h = load_presentation(args.path)
    lines = []
    ok = True
    checklist = check_axioms(h)
    for name, passed, detail in checklist.results:
        lines.append(f"{name}: {'ok' if passed else 'FAIL ' + detail}")
        ok = ok and passed
    try:
        integral_pair(h)
        lines.append("integrals: ok")
    except HopfForgeError as exc:
        lines.append(f"integrals: FAIL {exc}")
        ok = False
    if ok:
        try:
            computed = compute_antipode(h)
            if h.antipode is None:
                lines.append("antipode: ok (computed; none stored)")
            elif computed == h.antipode:
                lines.append("antipode-crosscheck: ok")
            else:
                lines.append("antipode-crosscheck: FAIL stored antipode "
                             "differs from the computed one")
                ok = False
        except NoAntipode as exc:
            lines.append(f"antipode: FAIL {exc}")
            ok = False
    print("\n".join(lines))
    return 0 if ok else 1


def _render_text_report(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "checks":
            lines.append("checks:")
            for chk in value:
                detail = f"  {chk['detail']}" if chk["detail"] else ""
                lines.append(f"  {chk['tag']:36s} {chk['status']}{detail}")
        elif key == "eigen_dims" and value is not None:
            lines.append("eigen_dims:")
            for lbl, d in value.items():
                if d:
                    lines.append(f"  ({lbl}): {d}")
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    selected = None
    if args.check is not None:
        selected = [s.strip() for s in args.check.split(",") if s.strip()]
        unknown = [s for s in selected
                   if not any(selects(s, tag) for tag in CHECK_TAGS)]
        if unknown or not selected:
            raise BadParameters(
                f"--check {', '.join(unknown) or args.check}: matches no "
                "check tag")
    h = load_presentation(args.path)
    rep = build_report(h, omega_power=args.omega, selected=selected)
    doc = rep.to_document()
    if args.json:
        _emit(canonical_bytes(doc), args.out)
    else:
        _emit(_render_text_report(doc).encode(), args.out)
    return 0 if rep.all_ok else 1


def _zoo_build(args) -> HopfPresentation:
    family = args.family
    if family == "taft":
        if args.n is None:
            raise BadParameters("taft needs --n")
        return build_taft(args.n, root_power=args.root_power,
                          cyclotomic_order=args.order)
    order = 1 if args.order is None else args.order
    if family == "sweedler":
        return sweedler(cyclotomic_order=order)
    if family == "group":
        if not args.cyclic:
            raise BadParameters("group needs --cyclic N[,N2,...]")
        try:
            parts = [int(s) for s in args.cyclic.split(",")]
        except ValueError as exc:
            raise BadParameters(f"bad --cyclic value: {args.cyclic!r}") from exc
        if len(parts) == 1:
            return build_cyclic_group_algebra(parts[0],
                                              cyclotomic_order=order)
        table = cyclic_table(parts[0])
        for n in parts[1:]:
            table = direct_product_table(table, cyclic_table(n))
        name = "k[Z" + "xZ".join(str(p) for p in parts) + "]"
        return build_group_algebra(table, cyclotomic_order=order,
                                   name=name)
    raise BadParameters(f"unknown zoo family {family!r}")


def cmd_zoo(args) -> int:
    h = _zoo_build(args)
    _emit(canonical_bytes(presentation_to_document(h)), args.out)
    return 0


def cmd_dual(args) -> int:
    h = dual(load_presentation(args.path))
    _emit(canonical_bytes(presentation_to_document(h)), args.out)
    return 0


def cmd_tensor(args) -> int:
    a = load_presentation(args.a)
    b = load_presentation(args.b)
    if args.lift_order is not None:
        a = lift_order(a, args.lift_order)
        b = lift_order(b, args.lift_order)
    h = build_tensor(a, b)
    _emit(canonical_bytes(presentation_to_document(h)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf-forge",
        description="Exact verification of Hopf algebra presentations "
                    "over cyclotomic fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check axioms, integrals, antipode")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="run the named invariant checks")
    p.add_argument("path")
    p.add_argument("--omega", type=int, default=1, metavar="POWER",
                   help="use omega = zeta_n^POWER (default 1)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable document")
    p.add_argument("--check", default=None, metavar="TAGS",
                   help="comma list of check tags or prefixes to run")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("zoo", help="emit a built-in example algebra")
    p.add_argument("family", choices=("taft", "group", "sweedler"))
    p.add_argument("--n", type=int, default=None, help="taft dimension root")
    p.add_argument("--root-power", type=int, default=1)
    p.add_argument("--order", type=int, default=None,
                   help="cyclotomic order of the coefficient field")
    p.add_argument("--cyclic", default=None, metavar="N[,N2,...]",
                   help="cyclic group orders (product if several)")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("dual", help="dual of a presentation file")
    p.add_argument("path")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("tensor", help="tensor product of two files")
    p.add_argument("--a", required=True, metavar="PATH")
    p.add_argument("--b", required=True, metavar="PATH")
    p.add_argument("--lift-order", type=int, default=None, metavar="N")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_tensor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedFile, MalformedTensor, BadParameters, NotAGroup,
            OrderMismatch, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EigenvalueNotInField, NonSplitting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rebuild the presentation over a larger cyclotomic "
              "field (raise cyclotomic_order)", file=sys.stderr)
        return 3
    except HopfForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
