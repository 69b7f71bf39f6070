"""Serialisable certificates and the independent recheck pass.

A certificate records a claim, its parameters, the verdict, and enough
evidence to replay the verification from scratch: rechecking rebuilds the
named objects and re-derives every reported fact, comparing against the
stored evidence.
"""

from __future__ import annotations

import json
from typing import Callable

from . import __version__
from .algebras import AlgebraError
from .fixtures import load_fixtures
from .identities import check_identity
from .induction import run_level_induction
from .io import dumps_canonical, write_atomic
from .maltsev import (
    ABSORPTION_SCHEMES,
    absorption_search,
    chain_level,
    coprime_dissent_pipeline,
)
from .terms import term_from_obj, verify_equations
from .witnesses import sharpness_report


def make_certificate(claim: str, parameters: dict, verdict: str, evidence: dict,
                     stats: dict | None = None) -> dict:
    return {
        "claim": claim,
        "parameters": parameters,
        "verdict": verdict,
        "evidence": evidence,
        "stats": stats or {},
        "tool_version": __version__,
    }


def save_certificate(cert: dict, path: str) -> None:
    write_atomic(path, dumps_canonical(cert))


def load_certificate(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# builders


def sharpness_certificate(m: int, q: int) -> dict:
    report = sharpness_report(m, q)
    ok = report["identity"]["verdict"] == "fails" and report["subuniverse_ok"]
    if q == 2:
        c = report["chains"]
        ok = ok and c["bfs_matches_canonical"] and c["bfs_factors"] == 2 * m - 4
        ok = ok and c["ab_chain_2m5"]["verdict"] == "fails"
        ok = ok and c["ag_chain_2m4"]["verdict"] == "fails"
    if q % 2 == 1:
        ok = ok and report["odd_equivalent"]["verdict"] == "fails"
    return make_certificate(
        "sharpness", {"m": m, "q": q},
        "verified" if ok else "refuted",
        report,
    )


def induction_certificate(m: int, q: int) -> dict:
    states = run_level_induction(m, q)
    evidence = {
        "stages": [
            {
                "j": st.j,
                "f_size": len(st.f_ids),
                "pair": list(st.pair),
                "identity": st.identity.to_obj(),
            }
            for st in states
        ]
    }
    ok = all(st.identity.verdict == "fails" for st in states)
    return make_certificate(
        "induction", {"m": m, "q": q}, "verified" if ok else "refuted", evidence
    )


def identity_certificate(family: str, m: int, q: int, *, j: int = 0, n: int = 0,
                         expect: str = "") -> dict:
    """Identity instance on the sharpness witness B(m, q) with its triple."""
    from .witnesses import build_sharpness_witness

    w = build_sharpness_witness(m, q)
    kwargs = dict(m=m, q=q, j=j, n=n)
    if w.size * w.size <= 2_000_000:
        inst = check_identity(family, w.alpha, w.beta, w.gamma, **kwargs)
    else:
        inst = check_identity(family, w.alpha, w.beta, w.gamma, **kwargs,
                              pair=(w.a, w.d))
    verdict = "verified"
    if expect and inst.verdict != expect:
        verdict = "refuted"
    return make_certificate(
        "identity",
        {"family": family, "m": m, "q": q, "j": j, "n": n,
         "context": {"builder": "sharpness", "m": m, "q": q}, "expect": expect},
        verdict,
        inst.to_obj(),
    )


def level_certificate(scheme: str, fixture_names: str, *, max_level: int = 64,
                      expect: int | None = None) -> dict:
    gens = load_fixtures(fixture_names)
    cert = chain_level(gens, scheme, max_level=max_level)
    op_names = [op.name for op in gens[0].ops]
    ok = cert.verified or not cert.found
    if expect is not None:
        ok = ok and cert.level == expect
    return make_certificate(
        "level",
        {"scheme": scheme, "fixtures": fixture_names, "expect": expect},
        "verified" if ok else "refuted",
        cert.to_obj(op_names),
    )


def search_certificate(scheme_name: str, fixture_names: str, *, arity: int = 0,
                       m: int = 0, expect: str = "") -> dict:
    gens = load_fixtures(fixture_names)
    cert = absorption_search(gens, _search_scheme(scheme_name, arity, m))
    op_names = [op.name for op in gens[0].ops]
    ok = (cert.verified if cert.found else cert.complete)
    if expect == "found":
        ok = ok and cert.found
    elif expect == "absent":
        ok = ok and not cert.found
    return make_certificate(
        "search",
        {"scheme": scheme_name, "fixtures": fixture_names, "arity": arity, "m": m,
         "expect": expect},
        "verified" if ok else "refuted",
        cert.to_obj(op_names),
    )


def _search_scheme(name: str, arity: int, m: int):
    """The named absorption scheme; some schemes are sized by m, the rest by arity."""
    maker = ABSORPTION_SCHEMES.get(name)
    if maker is None:
        raise AlgebraError(f"unknown search scheme {name!r}")
    return maker(m if name in ("nu-half", "dissent-unanimity") else arity)


def toolkit_certificate(fixture_names: str, d_index: int = 0, e_index: int = 1) -> dict:
    gens = load_fixtures(fixture_names)
    if len(gens) != 1:
        raise AlgebraError("the toolkit works on a single algebra")
    alg = gens[0]
    out = coprime_dissent_pipeline(alg, d_index, e_index)
    from .terms import term_to_obj

    op_names = [op.name for op in alg.ops]
    evidence = {
        "k": out["k"],
        "h": out["h"],
        "nu_arity": out["nu_arity"],
        "nu_term": term_to_obj(out["nu_term"], op_names),
        "maltsev_term": term_to_obj(out["maltsev_term"], op_names),
        "majority": out["majority"].to_obj(op_names),
    }
    ok = out["majority"].found and out["majority"].verified
    return make_certificate(
        "toolkit",
        {"fixtures": fixture_names, "d_index": d_index, "e_index": e_index},
        "verified" if ok else "refuted",
        evidence,
    )


# ---------------------------------------------------------------------------
# recheck


def recheck(cert: dict) -> tuple[bool, str]:
    """Rebuild the certified objects and replay the evidence.

    Returns (ok, detail).  Rechecks are independent recomputations: witness
    terms are re-verified by exhaustive evaluation and verdicts re-derived,
    then compared with the stored evidence.
    """
    claim = cert.get("claim")
    handler = _RECHECKERS.get(claim)
    if handler is None:
        return False, f"unknown claim {claim!r}"
    try:
        return handler(cert)
    except Exception as exc:  # any replay failure is a recheck failure
        return False, f"replay error: {exc}"


def _recheck_sharpness(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    fresh = sharpness_certificate(p["m"], p["q"])
    same = fresh["verdict"] == cert["verdict"] and fresh["evidence"] == cert["evidence"]
    return same, "recomputed report matches" if same else "report drifted"


def _recheck_induction(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    fresh = induction_certificate(p["m"], p["q"])
    same = fresh["verdict"] == cert["verdict"] and fresh["evidence"] == cert["evidence"]
    return same, "stages match" if same else "stages drifted"


def _recheck_identity(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    fresh = identity_certificate(
        p["family"], p["m"], p["q"], j=p.get("j", 0), n=p.get("n", 0),
        expect=p.get("expect", ""),
    )
    same = fresh["verdict"] == cert["verdict"] and fresh["evidence"] == cert["evidence"]
    return same, "identity instance reproduced" if same else "instance drifted"


def _recheck_level(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    gens = load_fixtures(p["fixtures"])
    ev = cert["evidence"]
    op_names = [op.name for op in gens[0].ops]
    if ev["terms"]:
        from .maltsev import _CHAIN_EQUATIONS

        terms = [term_from_obj(t, op_names) for t in ev["terms"]]
        builder, nvars = _CHAIN_EQUATIONS[p["scheme"]]
        ok, violation = verify_equations(builder(terms), gens, nvars)
        if not ok:
            return False, f"stored chain fails its equations at {violation}"
    fresh = chain_level(gens, p["scheme"])
    if fresh.to_obj(op_names) != ev:
        return False, f"recomputed chain (level {fresh.level}) differs from the stored one"
    ok = (fresh.verified or not fresh.found) and p.get("expect") in (None, fresh.level)
    return _verdict_follows(cert, ok, "chain re-verified and level reproduced")


def _recheck_search(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    gens = load_fixtures(p["fixtures"])
    ev = cert["evidence"]
    scheme = _search_scheme(p["scheme"], p["arity"], p["m"])
    if ev["found"]:
        from .maltsev import _scheme_equations

        op_names = [op.name for op in gens[0].ops]
        term = term_from_obj(ev["term"], op_names)
        equations, nvars = _scheme_equations(scheme, term)
        ok, violation = verify_equations(equations, gens, nvars)
        if not ok:
            return False, f"term fails at {violation}"
        return _verdict_follows(cert, p.get("expect") != "absent", "stored term re-verified")
    fresh = absorption_search(gens, scheme)
    if fresh.found or not fresh.complete:
        return False, "search disagrees with certificate"
    return _verdict_follows(cert, p.get("expect") != "found", "absence reproduced")


def _recheck_toolkit(cert: dict) -> tuple[bool, str]:
    p = cert["parameters"]
    fresh = toolkit_certificate(p["fixtures"], p["d_index"], p["e_index"])
    same = fresh["verdict"] == cert["verdict"] and fresh["evidence"] == cert["evidence"]
    return same, "toolkit pipeline reproduced" if same else "pipeline drifted"


def _verdict_follows(cert: dict, ok: bool, detail: str) -> tuple[bool, str]:
    """The stored verdict must be the one the recomputed facts give."""
    verdict = "verified" if ok else "refuted"
    if cert["verdict"] != verdict:
        return False, f"stored verdict {cert['verdict']!r}, recomputed {verdict!r}"
    return True, detail


_RECHECKERS: dict[str, Callable] = {
    "sharpness": _recheck_sharpness,
    "induction": _recheck_induction,
    "identity": _recheck_identity,
    "level": _recheck_level,
    "search": _recheck_search,
    "toolkit": _recheck_toolkit,
}
