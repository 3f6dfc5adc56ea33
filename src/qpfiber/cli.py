"""Command-line interface.

One verb per run; the report is a single JSON document on stdout, with the
wall-clock duration on stderr so that stdout stays byte-identical across
runs.  An argument the parser refuses is malformed input like any other;
only ``-h`` prints argparse help instead of JSON.  Exit codes: 0 success, 1
malformed or unreadable input (arguments included), 2
precondition violation (e.g. NotFull, NotQuasipositive, or SizeLimitExceeded
for ``--n`` above ``constructions.MAX_N``, an ``--input`` document or a
combed graph's host above ``MAX_STRANDS``/``MAX_LETTERS``, or a combed graph
above ``MAX_ARCS``), 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .braidcore import BandRepresentation, BraidWord, reduced_beta
from .constructions import MAX_N, expand_bands, nabla, pad_into_nabla, q_rep, verify_fiber
from .errors import InternalError, InvalidInput, PreconditionError, QpfiberError, SizeLimitExceeded
from .graphcalc import CombedGraph, reduce_with_trace
from .invariants import alexander_from_braid
from .qpize import quasipositize, quasipositize_handle_subsurface
from .selfcheck import run_all
from .surface import BraidedSurface, summary


def _read_document(path: str, inputs: dict):
    """The JSON document at `path` ('-' for stdin); records its sha256 in `inputs`."""
    try:
        if path == "-":
            data = sys.stdin.read()
            digest = hashlib.sha256(data.encode()).hexdigest()
        else:
            with open(path, "rb") as handle:
                raw = handle.read()
            digest = hashlib.sha256(raw).hexdigest()
            data = raw.decode()
    except UnicodeError as exc:
        raise InvalidInput(f"input is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError: not JSON, or an integer too long to convert;
        # RecursionError: arrays or objects nested too deep to decode
        raise InvalidInput(f"input is not JSON: {exc}") from exc
    inputs[path] = digest
    return doc


def _word_length(rep: BandRepresentation) -> int:
    """Letters of beta(rep), counted from the bands without expanding them.

    The limit counts the expanded letters, as documented, though
    `invariants` builds only the freely reduced word (`reduced_beta`):
    how many letters cancel depends on the order of the bands, and the
    expanded count is known before any work.
    """
    return sum(2 * (band.j - band.i) - 1 for band in rep.bands)


# Limits on the documents of the --input verbs, taken from the largest
# --n input: the fiber model q_rep(MAX_N) on 101 strands, whose expanded
# word has 20,000 letters.
_LARGEST_FIBER = q_rep(MAX_N)
MAX_STRANDS = _LARGEST_FIBER.strands
MAX_LETTERS = _word_length(_LARGEST_FIBER)

MAX_ARCS = 2000
"""Largest arc count of a combed graph that ``reduce`` and ``quasipositize`` accept.

Reduction makes its moves on a working copy of the graph, and a move costs
about as much as the combs it changes, so reduction time grows about
linearly in arcs.  On a 2-core x86-64 machine (Python 3.11, medians of 5)
``quasipositize`` on ``perfbench/inputs.grown_graph(Random(1), 6, 6, 13, arcs)``
took 0.0048, 0.0089, 0.018, 0.035 and 0.045 s at 200, 400, 800, 1,600 and
2,000 arcs, and ``reduce`` on a 2,000-arc star of S(q_2) took 0.034 s.
"""


def _limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise SizeLimitExceeded(f"{what} {value} is above the limit {limit}")


def _band_representation(doc) -> BandRepresentation:
    """The representation in `doc`, refused before any work if above the limits."""
    rep = BandRepresentation.from_json(doc)
    _limit("strand count", rep.strands, MAX_STRANDS)
    _limit("expanded word length", _word_length(rep), MAX_LETTERS)
    return rep


def _combed_graph(doc) -> CombedGraph:
    """The combed graph in `doc`, refused before any reduction if above the limits."""
    graph = CombedGraph.from_json(doc)
    _limit("host strand count", graph.host.strands, MAX_STRANDS)
    _limit("host expanded word length", _word_length(graph.host.rep), MAX_LETTERS)
    _limit("arc count", graph.total_arcs(), MAX_ARCS)
    return graph


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise InvalidInput; its subparsers are of this class too."""

    def error(self, message):
        raise InvalidInput(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: parsing leaves it unchanged, so `run` reuses it."""
    parser = _Parser(
        prog="qpfiber",
        description="braided Seifert surfaces, fiber models, and quasipositive band representations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("nabla", help="torus-link fiber word on n strands")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("qrep", help="quasipositive fiber model on (n-1)^2+1 strands")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("pad", help="embed a positive word's surface into the fiber")
    p.add_argument("--input", required=True, help="braid word JSON ('-' for stdin)")

    p = sub.add_parser("expand", help="embed a quasipositive surface into a positive word's surface")
    p.add_argument("--input", required=True, help="band representation JSON ('-' for stdin)")

    p = sub.add_parser("invariants", help="summary and Alexander data of a band representation")
    p.add_argument("--input", required=True, help="band representation JSON ('-' for stdin)")

    p = sub.add_parser("verify-fiber", help="cross-check the two fiber models")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("reduce", help="Whitehead-reduce a combed graph")
    p.add_argument("--input", required=True, help="combed graph JSON ('-' for stdin)")

    p = sub.add_parser("quasipositize", help="quasipositive representation of a full subsurface of S(q_n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", help="combed graph JSON ('-' for stdin)")
    p.add_argument("--subset", help="comma-separated fine 1-handle indices (spine input)")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=20600)

    return parser


def _dispatch(args, inputs: dict) -> dict:
    if getattr(args, "n", None) is not None:
        _limit("--n", args.n, MAX_N)
    if args.verb == "nabla":
        return {"representation": nabla(args.n).to_json()}
    if args.verb == "qrep":
        return {"representation": q_rep(args.n).to_json()}
    if args.verb == "pad":
        word = BraidWord.from_json(_read_document(args.input, inputs))
        # pad builds nabla(n), n = max(strands, letters), with n(n - 1) bands
        _limit("fiber size max(strands, letters)", max(word.strands, len(word.letters)), MAX_STRANDS)
        n, graph = pad_into_nabla(word)
        return {"n": n, "graph": graph.to_json()}
    if args.verb == "expand":
        word, graph = expand_bands(_band_representation(_read_document(args.input, inputs)))
        return {"word": word.to_json(), "graph": graph.to_json()}
    if args.verb == "invariants":
        rep = _band_representation(_read_document(args.input, inputs))
        surface_summary = summary(BraidedSurface(rep))
        # the summary counts each boundary circle once, in its component, and each band's letters'
        # exponents sum to its sign; only the Burau product reads letters, of the freely reduced word
        return {
            "chi": surface_summary.total_chi,
            "components": len(surface_summary.components),
            "boundary": sum(boundary for _, boundary in surface_summary.components),
            "exponent_sum": sum(band.sign for band in rep.bands),
            "alexander": alexander_from_braid(reduced_beta(rep)).coefficient_list(),
            "summary": surface_summary.to_json(),
        }
    if args.verb == "verify-fiber":
        return verify_fiber(args.n).to_json()
    if args.verb == "reduce":
        doc = _read_document(args.input, inputs)
        graph, trace = reduce_with_trace(_combed_graph(doc))
        return {"graph": graph.to_json(), "trace": [site.to_json() for site in trace]}
    if args.verb == "quasipositize":
        if (args.input is None) == (args.subset is None):
            raise InvalidInput("quasipositize needs exactly one of --input or --subset")
        if args.subset is not None:
            try:
                selected = [int(x) for x in args.subset.split(",") if x.strip()]
            except ValueError as exc:
                raise InvalidInput(f"--subset must be comma-separated integers: {exc}") from exc
            result = quasipositize_handle_subsurface(args.n, selected)
        else:
            doc = _read_document(args.input, inputs)
            result = quasipositize(args.n, _combed_graph(doc))
        return result.to_json()
    if args.verb == "selftest":
        checks = run_all(args.seed)
        report = {"checks": [c.to_json() for c in checks], "ok": all(c.ok for c in checks)}
        if not report["ok"]:
            raise InternalError(json.dumps(report, sort_keys=True))
        return report
    raise InvalidInput(f"unknown verb {args.verb!r}")


# Each failure's exit code and report kind (None: the error's type name); the first row that matches.
_FAILURES = (
    (InvalidInput, 1, "malformed-input"),
    (PreconditionError, 2, None),
    (InternalError, 3, None),
    (FileNotFoundError, 1, "missing-input"),
    (OSError, 1, "unreadable-input"),
    (QpfiberError, 1, None),
)


def run(argv: list[str]) -> int:
    started = time.monotonic()
    inputs: dict[str, str] = {}
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # -h: the parser printed its help and asked to exit
            return 0
        result = _dispatch(args, inputs)
    except (QpfiberError, OSError) as exc:
        code, kind = next((code, kind) for error, code, kind in _FAILURES if isinstance(exc, error))
        _emit({"command": argv, "error": str(exc), "kind": kind or type(exc).__name__, "ok": False})
        return code
    _emit({"command": argv, "inputs": inputs, "result": result, "ok": True})
    sys.stderr.write(f"duration: {time.monotonic() - started:.3f}s\n")
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
