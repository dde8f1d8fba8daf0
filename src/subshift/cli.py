"""Command-line interface.

Verbs:
  analyze MATRIX [--depth N] [--out FILE]      full verdict as JSON
  verify REPORT                                re-check a report from its text alone
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
import functools
import sys

from .cylinders import CylinderFunction, format_function_file, parse_function_file, spelled_values
from .errors import MalformedInput, SubshiftError
from .freeness import find_nontrivial_invariant, freeness_certificate, minimality_witness
from .graph import NUMERAL_DIGITS, parse_matrix
from .sequences import spelled_words, word_to_string
from .transfer import (
    as_operator,
    format_weight_file,
    parse_weight_file,
    recover_weight,
    transfer_apply,
    weights_equivalent,
    zero_set,
)
from .verdict import analyze, dump_json, matrix_echo, render_report, verify_report


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise MalformedInput(f"{path} is not UTF-8 text") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _function_table(f: CylinderFunction) -> dict:
    return {"depth": f.depth, "values": spelled_values(f)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every verb, built once per process on first use.

    Parsing keeps no state between calls (each ``parse_args`` fills a new
    namespace), so ``main`` reuses this one parser; every caller shares
    it and must not change it.
    """
    parser = argparse.ArgumentParser(prog="subshift", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("matrix")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    writes = [matrix, out]

    p = sub.add_parser("analyze", parents=writes, help="run the full dichotomy analysis")
    p.add_argument("--depth", type=int, default=4)

    p = sub.add_parser("verify", help="re-check every claim of a report written by analyze")
    p.add_argument("report")

    pt = sub.add_parser("transfer", help="weighted transfer operator tools")
    tsub = pt.add_subparsers(dest="action", required=True)
    p = tsub.add_parser("apply", parents=writes, help="apply the operator of WEIGHT to FUNCTION")
    p.add_argument("weight")
    p.add_argument("function")
    p = tsub.add_parser("recover", parents=writes, help="recover the weight from the operator it induces")
    p.add_argument("weight")
    p = tsub.add_parser("equiv", parents=writes, help="decide equivalence of two weights")
    p.add_argument("weight1")
    p.add_argument("weight2")

    pw = sub.add_parser("witness", help="individual certificates")
    wsub = pw.add_subparsers(dest="action", required=True)
    wsub.add_parser("invariant", parents=writes, help="nontrivial invariant open set")
    p = wsub.add_parser("minimal", parents=writes, help="orbit witness from cylinder W to cylinder Z")
    p.add_argument("w")
    p.add_argument("z")
    p = wsub.add_parser("freeness", parents=writes, help="freeness table for exponents I < J")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)

    p = sub.add_parser("words", parents=[matrix], help="list admissible words of length K")
    p.add_argument("k", type=int)

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.verb == "verify":
        v = verify_report(_read(args.report))
        _emit(f"verified: {v.conclusion} at depth budget {v.depth_budget}\n", None)
        return 0

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
        # dump_json writes each certificate object as json.dumps writes its to_dict().
        if args.action == "invariant":
            doc = {"matrix": matrix_echo(A), "invariant_set": find_nontrivial_invariant(A)}
        elif args.action == "minimal":
            doc = {"matrix": matrix_echo(A), "minimality": minimality_witness(A, args.w, args.z)}
        else:
            doc = {"matrix": matrix_echo(A), "freeness": freeness_certificate(A, args.i, args.j)}
        _emit(dump_json(doc), args.out)
        return 0

    # words
    _emit("".join(s + "\n" for s in spelled_words(A, args.k)), None)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one verb on `argv` (default ``sys.argv[1:]``) and return its exit
    status.  The parser is built once per process (``build_parser``), so
    repeated in-process calls pay only for their own verb.  It refuses to
    run (exit 2) under an int() digit limit below NUMERAL_DIGITS, the
    numerals every reader and writer must handle: set by
    ``-X int_max_str_digits`` or ``PYTHONINTMAXSTRDIGITS`` (0 means none)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no such limit before Python 3.10.7
    if 0 < limit < NUMERAL_DIGITS:
        need = f"subshift needs at least {NUMERAL_DIGITS} or 0"
        print(f"error: int_max_str_digits is {limit}; {need}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SubshiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
