"""Command-line surface tying every claim to a runnable command.

Exit codes: 0 the claim verified as expected, 1 the claim was refuted (a
certificate with the counterevidence is still written), 2 a resource cap was
hit, 3 invalid input, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import (
    AlgebraError, BoxUnion, CapExceeded, direct_product, make_chain_lattice, make_ujm_reduct,
)
from .certificates import (
    identity_certificate,
    induction_certificate,
    level_certificate,
    load_certificate,
    recheck,
    save_certificate,
    search_certificate,
    sharpness_certificate,
    toolkit_certificate,
)
from .fixtures import load_fixture, load_fixtures
from .identities import FAMILIES
from .io import algebra_to_obj, dumps_canonical, save_algebra, write_atomic
from .maltsev import ABSORPTION_SCHEMES, CHAIN_SCHEMES
from .witnesses import build_sharpness_witness, cube_minus_top, filtered_subproduct

EXIT_OK, EXIT_REFUTED, EXIT_CAP, EXIT_INVALID = 0, 1, 2, 3


def _emit(cert: dict, out: str | None, quiet: bool = False) -> int:
    if out:
        save_certificate(cert, out)
    if not quiet:
        summary = {k: cert[k] for k in ("claim", "parameters", "verdict")}
        print(json.dumps(summary))
    return EXIT_OK if cert["verdict"] == "verified" else EXIT_REFUTED


def _cmd_build(args) -> int:
    kind = args.what
    if kind == "chain":
        alg = make_chain_lattice(args.size)
    elif kind == "nu-reduct":
        alg = make_ujm_reduct(args.size, args.j, args.m)
    elif kind == "fixture":
        alg = load_fixture(args.fixture)
    elif kind == "product":
        alg = direct_product(load_fixtures(args.fixture))
    elif kind == "cube":
        alg, subset = cube_minus_top(args.m)
        doc = {"algebra": algebra_to_obj(alg), "subuniverse": subset}
        write_atomic(args.out, dumps_canonical(doc))
        print(f"wrote {args.out}: size {alg.size}, subuniverse {len(subset)}")
        return EXIT_OK
    elif kind == "sharpness":
        w = build_sharpness_witness(args.m, args.q)
        doc = {
            "product_size": w.product.size,
            "factor_roles": w.factor_roles,
            "good_ids": w.good_ids,
            "alpha": w.alpha.to_obj(),
            "beta": w.beta.to_obj(),
            "gamma": w.gamma.to_obj(),
            "elements": {"a": w.a, "c": w.c, "d": w.d, "lhs_chain": w.lhs_chain},
        }
        write_atomic(args.out, dumps_canonical(doc))
        print(f"wrote {args.out}: product {w.product.size}, subuniverse {w.size}")
        return EXIT_OK
    elif kind == "filtered":
        algs = load_fixtures(args.fixture)
        if len(algs) != 4:
            raise AlgebraError("the filtered build needs exactly four fixtures")
        if not args.f:
            f_pairs = BoxUnion.whole(direct_product(algs[2:]))
        else:
            try:
                f_pairs = [int(x) for x in args.f.split(",")]
            except ValueError:
                raise AlgebraError(f"--f takes comma-separated pair indices, "
                                   f"not {args.f!r}") from None
        built = filtered_subproduct(
            algs[0], algs[1], algs[2], algs[3], 0, 0, 0,
            args.h, args.k, args.a, args.d, f_pairs,
        )
        doc = {
            "ambient_size": built.ambient.size,
            "subuniverse": built.b_ids,
            "templates": {str(e): list(t) for e, t in built.tags.items()},
        }
        write_atomic(args.out, dumps_canonical(doc))
        print(f"wrote {args.out}: ambient {built.ambient.size}, subuniverse {len(built.b_ids)}")
        return EXIT_OK
    else:
        raise AlgebraError(f"unknown build target {kind!r}")
    save_algebra(alg, args.out)
    print(f"wrote {args.out}: {alg.label} size {alg.size}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "sharpness":
        cert = sharpness_certificate(args.m, args.q)
    else:
        cert = induction_certificate(args.m, args.q)
    return _emit(cert, args.out)


def _cmd_check_identity(args) -> int:
    cert = identity_certificate(
        args.family, args.m, args.q, j=args.j, n=args.n, expect=args.expect
    )
    return _emit(cert, args.out)


def _cmd_level(args) -> int:
    cert = level_certificate(args.scheme, args.fixture, max_level=args.cap,
                             expect=args.expect)
    code = _emit(cert, args.out, quiet=True)
    ev = cert["evidence"]
    if ev["found"]:
        print(f"{args.scheme} level of V({args.fixture}) = {ev['level']}")
    else:
        print(f"{args.scheme}: no chain exists for V({args.fixture})")
    return code


def _cmd_search(args) -> int:
    cert = search_certificate(args.scheme, args.fixture, arity=args.arity, m=args.m,
                              expect=args.expect)
    code = _emit(cert, args.out, quiet=True)
    ev = cert["evidence"]
    what = " ".join([args.scheme, *(f"{k} {v}" for k, v in ev["params"].items())])
    print(f"{what} on V({args.fixture}): {'found' if ev['found'] else 'not found'}")
    return code


def _cmd_toolkit(args) -> int:
    cert = toolkit_certificate(args.fixture, args.d_index, args.e_index)
    return _emit(cert, args.out)


def _cmd_recheck(args) -> int:
    cert = load_certificate(args.cert)
    ok, detail = recheck(cert)
    print(f"recheck {'passed' if ok else 'FAILED'}: {detail}")
    return EXIT_OK if ok else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finalg",
        description="finite-algebra workbench: witnesses, congruence identities, term searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an algebra or witness and write it as JSON")
    p.add_argument("what", choices=["chain", "nu-reduct", "fixture", "product", "cube",
                                    "sharpness", "filtered"])
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--fixture", default="")
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--f", default="", help="comma-separated pair indices for the last two factors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run a bundled verification pipeline")
    p.add_argument("what", choices=["sharpness", "induction"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", help="evaluate one congruence identity instance")
    p.add_argument("what", choices=["identity"])
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--expect", default="", choices=["", "holds", "fails"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_identity)

    p = sub.add_parser("level", help="minimal chain length of a Maltsev condition")
    p.add_argument("--scheme", choices=sorted(CHAIN_SCHEMES), required=True)
    p.add_argument("--fixture", required=True, help="comma-separated fixture names")
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--expect", type=int, default=None, help="fail unless the level equals this")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_level)

    p = sub.add_parser("search", help="absorption-style term existence search")
    p.add_argument("--scheme", choices=sorted(ABSORPTION_SCHEMES), required=True)
    p.add_argument("--fixture", required=True)
    p.add_argument("--arity", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--expect", default="", choices=["", "found", "absent"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("toolkit", help="lone-dissent composition pipeline")
    p.add_argument("what", choices=["lone-dissent"])
    p.add_argument("--fixture", required=True)
    p.add_argument("--d-index", type=int, default=0)
    p.add_argument("--e-index", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_toolkit)

    p = sub.add_parser("recheck", help="replay a certificate's evidence independently")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_recheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which here is a cap
        return EXIT_INVALID if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AlgebraError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
