"""Command-line interface.

Verbs:
  analyze MATRIX [--depth N] [--out FILE]      full verdict as JSON
  transfer apply MATRIX WEIGHT FUNCTION        apply a weighted transfer operator
  transfer recover MATRIX WEIGHT               rebuild the weight from its operator
  transfer equiv MATRIX WEIGHT1 WEIGHT2        decide weight equivalence
  witness invariant MATRIX                     invariant-set certificate
  witness minimal MATRIX W Z                   cylinder-to-cylinder orbit witness
  witness freeness MATRIX I J                  per-cylinder freeness table
  words MATRIX K                               admissible words of length K

Exit status is 0 for any completed run and 2 for input errors (bad
files, malformed words, or inputs outside a verb's hypotheses).
"""

from __future__ import annotations

import argparse
import sys

from .cylinders import CylinderFunction, format_function_file, parse_function_file
from .errors import SubshiftError
from .freeness import find_nontrivial_invariant, freeness_certificate, minimality_witness
from .graph import parse_matrix
from .sequences import enumerate_words, word_to_string
from .transfer import (
    as_operator,
    format_weight_file,
    parse_weight_file,
    recover_weight,
    transfer_apply,
    weights_equivalent,
    zero_set,
)
from .verdict import analyze, dump_json, matrix_echo, render_report


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _function_table(f: CylinderFunction) -> dict:
    return {
        "depth": f.depth,
        "values": {word_to_string(w): str(v) for w, v in sorted(f.values.items())},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subshift", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="run the full dichotomy analysis")
    p.add_argument("matrix")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out")

    pt = sub.add_parser("transfer", help="weighted transfer operator tools")
    tsub = pt.add_subparsers(dest="action", required=True)
    p = tsub.add_parser("apply", help="apply the operator of WEIGHT to FUNCTION")
    p.add_argument("matrix")
    p.add_argument("weight")
    p.add_argument("function")
    p.add_argument("--out")
    p = tsub.add_parser("recover", help="recover the weight from the operator it induces")
    p.add_argument("matrix")
    p.add_argument("weight")
    p.add_argument("--out")
    p = tsub.add_parser("equiv", help="decide equivalence of two weights")
    p.add_argument("matrix")
    p.add_argument("weight1")
    p.add_argument("weight2")
    p.add_argument("--out")

    pw = sub.add_parser("witness", help="individual certificates")
    wsub = pw.add_subparsers(dest="action", required=True)
    p = wsub.add_parser("invariant", help="nontrivial invariant open set")
    p.add_argument("matrix")
    p.add_argument("--out")
    p = wsub.add_parser("minimal", help="orbit witness from cylinder W to cylinder Z")
    p.add_argument("matrix")
    p.add_argument("w")
    p.add_argument("z")
    p.add_argument("--out")
    p = wsub.add_parser("freeness", help="freeness table for exponents I < J")
    p.add_argument("matrix")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--out")

    p = sub.add_parser("words", help="list admissible words of length K")
    p.add_argument("matrix")
    p.add_argument("k", type=int)

    return parser


def _run(args: argparse.Namespace) -> int:
    A = parse_matrix(_read(args.matrix))

    if args.verb == "analyze":
        _emit(render_report(analyze(A, args.depth)), args.out)
        return 0

    if args.verb == "transfer":
        if args.action == "apply":
            rho = parse_weight_file(A, _read(args.weight))
            f = parse_function_file(A, _read(args.function))
            _emit(format_function_file(transfer_apply(rho, f)), args.out)
        elif args.action == "recover":
            rho = parse_weight_file(A, _read(args.weight))
            recovered = recover_weight(as_operator(rho), rho.domain)
            _emit(format_weight_file(recovered), args.out)
        else:
            rho1 = parse_weight_file(A, _read(args.weight1))
            rho2 = parse_weight_file(A, _read(args.weight2))
            equivalent, witness = weights_equivalent(rho1, rho2)
            doc = {
                "equivalent": equivalent,
                "witness": None if witness is None else _function_table(witness),
            }
            if not equivalent:
                doc["zero_set_left"] = sorted(word_to_string(w) for w in zero_set(rho1))
                doc["zero_set_right"] = sorted(word_to_string(w) for w in zero_set(rho2))
            _emit(dump_json(doc), args.out)
        return 0

    if args.verb == "witness":
        if args.action == "invariant":
            cert = find_nontrivial_invariant(A)
            doc = {"matrix": matrix_echo(A), "invariant_set": cert.to_dict()}
        elif args.action == "minimal":
            wit = minimality_witness(A, args.w, args.z)
            doc = {"matrix": matrix_echo(A), "minimality": wit.to_dict()}
        else:
            cert = freeness_certificate(A, args.i, args.j)
            doc = {"matrix": matrix_echo(A), "freeness": cert.to_dict()}
        _emit(dump_json(doc), args.out)
        return 0

    # words
    listing = "".join(word_to_string(w) + "\n" for w in enumerate_words(A, args.k))
    _emit(listing, None)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SubshiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
