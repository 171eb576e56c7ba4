"""Command line surface.

Every command reads an algebra file, runs one operation, and writes a JSON
report as one line of compact JSON (stdout, or --out FILE).  Reports carry
the session prime and a digest of the input so results are self-describing;
rerunning a command on the same input with the same flags reproduces the
result fields exactly.

Exit codes: 0 success, 1 malformed input file, 2 violated precondition
(including failed validation), 3 internal check failure (a bug, not a
property of the input).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import corpus, equiv, fileio, selfinj
from .algebra import (
    corner,
    degree_zero_subalgebra,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
    radical,
    validate_algebra,
    validate_extension,
)
from .construct import beilinson, t_of
from .errors import (
    AmbiguousMatch,
    CheckFailed,
    GeneratorNotFound,
    ParseError,
    PreconditionError,
    PreconditionFailed,
)
from .modp import DEFAULT_PRIME


def _emit(report: dict, out: str | None) -> None:
    """Write the report as one line of compact JSON, by the C encoder.

    ``indent`` would select the pure-Python encoder, several times slower on
    a certificate of thousands of checks; ``python -m json.tool`` indents it.
    """
    text = json.dumps(report, separators=(",", ":"))
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load(args):
    """The validated algebra of the command's input document."""
    return validate_algebra(fileio.algebra_from_doc(args.doc))


def _predicates(a) -> dict:
    res: dict = {
        "dim": a.dim,
        "top_degree": a.top_degree(),
        "component_dims": a.component_dims(),
        "radical_dim": int(radical(a).shape[0]),
        "basic": is_basic(a),
    }
    si = selfinj.is_graded_selfinjective(a)
    res["selfinjective"] = si.holds
    if a.top_degree() >= 1:
        left, lw = is_left_well_graded(a)
        right, rw = is_right_well_graded(a)
        res["left_well_graded"] = left
        res["right_well_graded"] = right
        res["well_graded_witness"] = lw if lw is not None else rw
        res["frobenius"] = selfinj.is_graded_frobenius(a)
        res["top_component_faithful"] = selfinj.is_Ac_faithful(a)
    return res


def _cmd_validate(args) -> dict:
    a = _load(args)
    return {"valid": True, "dim": a.dim, "top_degree": a.top_degree(),
            "component_dims": a.component_dims()}


def _cmd_info(args) -> dict:
    return _predicates(_load(args))


def _construction_report(args, made) -> dict:
    doc = fileio.algebra_to_doc(made)
    if args.algebra_out:
        fileio._save_doc(args.algebra_out, doc)
    return {
        "dim": made.dim,
        "top_degree": made.top_degree(),
        "component_dims": made.component_dims(),
        "n_idempotents": made.n_idempotents,
        "algebra": doc,
    }


def _cmd_beilinson(args) -> dict:
    return _construction_report(args, validate_algebra(beilinson(_load(args))))


def _cmd_trivext(args) -> dict:
    # t_of's join decided the associativity of t(A); the other checks remain
    return _construction_report(args, validate_extension(t_of(_load(args))))


def _cmd_selfinj(args) -> dict:
    a = _load(args)
    selfinj.require_seed(args.seed)  # on every input, though only a basic one is searched
    cert = selfinj.is_graded_selfinjective(a)
    res = cert.to_dict()
    if is_basic(a):
        lam = selfinj.frobenius_functional_search(a, seed=args.seed)
        res["frobenius_functional"] = None if lam is None else lam.tolist()
        res["functional_search_seed"] = args.seed
    return res


def _cmd_nakayama(args) -> dict:
    return selfinj.graded_nakayama(_load(args)).to_dict()


def _cmd_gldim(args) -> dict:
    a = _load(args)
    res: dict = {"cutoff": args.cutoff}
    if a.top_degree() == 0:
        res["gldim"] = selfinj.global_dimension(a, args.cutoff).to_dict()
    else:
        a0 = degree_zero_subalgebra(a)
        g0 = selfinj.global_dimension(a0, args.cutoff)
        gb = selfinj.global_dimension(beilinson(a), args.cutoff)
        res["gldim_degree0"] = g0.to_dict()
        res["gldim_beilinson"] = gb.to_dict()
        # the paper's criterion: finite on one side iff on the other; a side
        # past the cutoff is undecided, so only two finite sides confirm it
        res["finiteness_coincides"] = True if g0.finite and gb.finite else None
    return res


def _cmd_derive_sigma(args) -> dict:
    a = _load(args)
    ext = equiv.extract_sigma(a, seed=args.seed)
    return ext.to_dict()


def _cmd_equiv(args) -> dict:
    a = _load(args)
    cert = equiv.theorem_pipeline(a, window=args.samples_window, seed=args.seed)
    out = cert.to_dict()
    out["n_checks"] = len(cert.checks)
    return out


def _cmd_corner(args) -> dict:
    a = _load(args)
    try:
        indices = [int(s) for s in args.idempotent.split(",")]
    except ValueError:
        raise ParseError(f"--idempotent expects comma-separated indices, got {args.idempotent!r}")
    if not indices or any(i < 0 or i >= a.n_idempotents for i in indices):
        raise PreconditionFailed("idempotent-index", f"indices must be in 0..{a.n_idempotents - 1}")
    e = a.idempotents[indices].sum(axis=0) % a.p
    made = validate_algebra(corner(a, e))
    return {
        "indices": indices,
        "dim": made.dim,
        "component_dims": made.component_dims(),
        "algebra": fileio.algebra_to_doc(made),
    }


def _cmd_gen_example(args) -> dict:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.m is not None:
        params["m"] = args.m
    if args.c is not None:
        params["c"] = args.c
    try:
        made = corpus.gen_example(args.kind, prime=args.prime, **params)
    except ValueError as exc:
        raise ParseError(str(exc))
    doc = fileio.algebra_to_doc(made)
    if args.algebra_out:
        fileio._save_doc(args.algebra_out, doc)
    return {"kind": args.kind, "dim": made.dim, "algebra": doc}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    Parsing returns a new namespace and leaves the parser as it was, so
    successive ``main`` calls share it; each command's handler is bound
    when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="gradedalg",
        description="Graded algebra constructions and decision procedures over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True, **extra):
        sp = sub.add_parser(name, help=extra.pop("help", None))
        if needs_file:
            sp.add_argument("file", help="algebra file (JSON)")
        sp.add_argument("--out", default=None, help="write the report to this file")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", _cmd_validate, help="check all algebra-file invariants")
    add("info", _cmd_info, help="dimensions and decision-procedure summary")
    for name, fn in (("beilinson", _cmd_beilinson), ("trivext", _cmd_trivext)):
        sp = add(name, fn)
        sp.add_argument("--algebra-out", default=None, help="also write the constructed algebra file")
    sp = add("selfinj", _cmd_selfinj, help="self-injectivity certificate + functional search")
    sp.add_argument("--seed", type=int, default=0)
    add("nakayama", _cmd_nakayama, help="Nakayama permutation and degree shifts")
    sp = add("gldim", _cmd_gldim, help="bounded global dimension (of A_0 and b(A) when graded)")
    sp.add_argument("--cutoff", type=int, default=32)
    sp = add("derive-sigma", _cmd_derive_sigma, help="twisting automorphism of a trivial extension")
    sp.add_argument("--seed", type=int, default=0)
    sp = add("equiv", _cmd_equiv, help="build and certify the graded equivalence")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples-window", type=int, default=None)
    sp = add("corner", _cmd_corner, help="corner algebra by a sum of designated idempotents")
    sp.add_argument("--idempotent", required=True, help="comma-separated idempotent indices")
    sp = add("gen-example", _cmd_gen_example, needs_file=False, help="emit a bundled example algebra")
    sp.add_argument("kind", choices=corpus.KINDS)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--algebra-out", default=None, help="also write the algebra file")
    return parser


def _run(args, report: dict) -> int:
    """Fill in the report of one command and return its exit code.

    The input file is read once: its bytes are digested, then decoded and
    parsed into ``args.doc``, whose prime the report carries, and from which
    the command builds its algebra.
    """
    data = None
    if getattr(args, "file", None):
        try:
            data = Path(args.file).read_bytes()
        except OSError as exc:
            report["error"] = {"kind": "io", "message": str(exc)}
            return 1
        report["input_digest"] = hashlib.sha256(data).hexdigest()
    else:
        report["prime"] = getattr(args, "prime", DEFAULT_PRIME)
    try:
        if data is not None:
            args.doc = fileio.parse(fileio.decode(data))
            if isinstance(args.doc, dict):
                report["prime"] = args.doc.get("prime")
        report["results"] = args.fn(args)
    except ParseError as exc:
        report["error"] = {"kind": "parse", "message": str(exc)}
        return 1
    except PreconditionError as exc:
        report["error"] = {"kind": "precondition", "message": str(exc)}
        if isinstance(exc, PreconditionFailed):
            report["error"]["hypothesis"] = exc.hypothesis
            report["error"]["detail"] = exc.detail
        return 2
    except (CheckFailed, GeneratorNotFound, AmbiguousMatch) as exc:
        report["error"] = {"kind": "internal-check", "message": str(exc)}
        return 3
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    report = {
        "command": args.command,
        "prime": None,
        "input_digest": None,
        "results": None,
        "timing_s": None,
    }
    code = _run(args, report)
    report["timing_s"] = round(time.time() - t0, 6)
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
