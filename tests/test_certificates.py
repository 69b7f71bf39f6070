import copy

import pytest

from finalg.algebras import CapExceeded
from finalg.certificates import (
    identity_certificate,
    induction_certificate,
    level_certificate,
    recheck,
    search_certificate,
    sharpness_certificate,
    toolkit_certificate,
)
from finalg.io import dumps_canonical

FLIP_EXPECT = {2: 3, "found": "absent", "absent": "found"}


@pytest.fixture(scope="module")
def certs():
    return [
        level_certificate("jonsson", "N:2:3", expect=2),
        search_certificate("nu", "N:2:3", arity=3, expect="found"),
        search_certificate("nu", "N:2:4", arity=3, expect="absent"),
    ]


def test_untouched_certificates_recheck(certs):
    for cert in certs:
        assert cert["verdict"] == "verified"
        ok, detail = recheck(cert)
        assert ok, detail


@pytest.mark.parametrize("which", range(3))
def test_flipped_expect_is_rejected(certs, which):
    bad = copy.deepcopy(certs[which])
    bad["parameters"]["expect"] = FLIP_EXPECT[bad["parameters"]["expect"]]
    ok, detail = recheck(bad)
    assert not ok and "verdict" in detail


@pytest.mark.parametrize("which", range(3))
def test_flipped_verdict_is_rejected(certs, which):
    bad = copy.deepcopy(certs[which])
    bad["verdict"] = "refuted"
    ok, detail = recheck(bad)
    assert not ok and "verdict" in detail


def test_refuted_certificate_with_its_true_verdict_rechecks():
    # a wrong expectation makes the builder refute; recheck agrees with that
    cert = level_certificate("jonsson", "N:2:3", expect=5)
    assert cert["verdict"] == "refuted"
    ok, detail = recheck(cert)
    assert ok, detail


@pytest.mark.parametrize("term", [["u", "x0", "x1", "x2", "x3", "x1"], ["u", "x0", "x1", "x2"]],
                         ids=["extra argument", "missing argument"])
def test_stored_term_with_the_wrong_argument_count_is_rejected(term):
    cert = search_certificate("nu", "I:4", arity=4, expect="found")
    assert cert["evidence"]["term"][0] == "u"
    bad = copy.deepcopy(cert)
    bad["evidence"]["term"] = term
    ok, detail = recheck(bad)
    assert not ok
    assert f"operation u takes 4 arguments, not {len(term) - 1}" in detail


@pytest.mark.parametrize("var", ["x-3", "x01"])
def test_stored_term_with_a_noncanonical_variable_is_rejected(var):
    # read as Var(-3) or Var(1), either would pass: subst indexes its
    # mapping from the end, and x01 is x1
    cert = search_certificate("nu", "I:4", arity=4, expect="found")
    respell = lambda t: var if t == "x1" else [respell(a) for a in t] if isinstance(t, list) else t
    bad = copy.deepcopy(cert)
    bad["evidence"]["term"] = respell(cert["evidence"]["term"])
    assert bad["evidence"]["term"] != cert["evidence"]["term"]
    ok, detail = recheck(bad)
    assert not ok and f"bad variable {var!r}" in detail


def test_undecided_identity_is_a_cap_not_a_refutation():
    # past FULL_PAIR_CAP (B(9,2) has 2,202 elements) only pair mode runs, at
    # (a, d); a pair that is no counterexample decides neither expectation
    with pytest.raises(CapExceeded, match=r"'holds' undecided: B\(9,2\) has 2202 elements"):
        identity_certificate("zigzag-even", 9, 2, expect="holds")
    assert identity_certificate("zigzag-even", 8, 2, expect="holds")["verdict"] == "verified"
    fails = identity_certificate("dist", 9, 2, n=13, expect="fails")
    assert fails["verdict"] == "verified" and fails["evidence"]["stats"]["mode"] == "pair"


def altered(value):
    """A different value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    if isinstance(value, list):
        return [altered(value[0]), *value[1:]] if value else [0]
    if isinstance(value, dict):
        key = sorted(value)[0] if value else "extra"
        return {**value, key: altered(value.get(key))}
    raise TypeError(type(value))


FULL_EVIDENCE = {
    "sharpness": lambda: sharpness_certificate(4, 2),
    "induction": lambda: induction_certificate(5, 2),
    "identity": lambda: identity_certificate("wedge-power", 4, 2, expect="fails"),
    "level": lambda: level_certificate("jonsson", "N:2:3", expect=2),
    "search found": lambda: search_certificate("nu", "N:2:3", arity=3, expect="found"),
    "search absent": lambda: search_certificate("nu", "N:2:4", arity=3, expect="absent"),
    "toolkit": lambda: toolkit_certificate("LD2"),
}


@pytest.mark.parametrize("claim", sorted(FULL_EVIDENCE))
def test_every_altered_evidence_field_is_rejected(claim):
    cert = FULL_EVIDENCE[claim]()
    ok, detail = recheck(cert)
    assert ok, detail
    for key in sorted(cert["evidence"]):
        bad = copy.deepcopy(cert)
        bad["evidence"][key] = altered(bad["evidence"][key])
        ok, detail = recheck(bad)
        assert not ok, f"{claim} evidence.{key} altered but accepted: {detail}"


# Canonical certificates as written before the partition layer became dense
# block-id arrays; a change to how partitions are stored or met must leave
# every byte of them as it is.
_SHARPNESS_9_2 = (
    '{"claim":"sharpness",'
    '"evidence":{"chains":{"ab_chain_2m4":{"counterexample":[1655,559],'
    '"family":"dist","lhs_chain":null,"params":{"n":14},"stats":{"in_lhs":true,'
    '"in_rhs":true,"mode":"pair","size":2202},"verdict":"pair-not-counterexample"},'
    '"ab_chain_2m5":{"counterexample":[1655,559],"family":"dist","lhs_chain":[1655,'
    '1107,559],"params":{"n":13},"stats":{"mode":"pair","size":2202},'
    '"verdict":"fails"},"ag_chain_2m4":{"counterexample":[1655,559],"family":"alvin",'
    '"lhs_chain":[1655,1107,559],"params":{"n":14},"stats":{"mode":"pair",'
    '"size":2202},"verdict":"fails"},"bfs_chain":[1655,925,193,111,27,17,5,3,1,7,11,'
    '41,69,315,559],"bfs_factors":14,"bfs_matches_canonical":true,'
    '"canonical_chain":[1655,925,193,111,27,17,5,3,1,7,11,41,69,315,559]},'
    '"identity":{"counterexample":[1655,559],"family":"wedge-power",'
    '"lhs_chain":[1655,1107,559],"params":{"m":9,"q":2},"stats":{"mode":"pair",'
    '"size":2202},"verdict":"fails"},"lhs_chain":[1655,1107,559],"m":9,"pair":[1655,'
    '559],"pair_product_ids":[3281,1093],"product_size":4374,"q":2,'
    '"subuniverse_ok":true,"subuniverse_size":2202},"parameters":{"m":9,"q":2},'
    '"stats":{},"tool_version":"0.1.0","verdict":"verified"}'
)
_INDUCTION_7_3 = (
    '{"claim":"induction","evidence":{"stages":[{"f_size":8,'
    '"identity":{"counterexample":[7,1],"family":"wedge-power-j","lhs_chain":[7,4,2,'
    '1],"params":{"j":4,"m":7,"q":3},"stats":{"mode":"pair","size":8},'
    '"verdict":"fails"},"j":4,"pair":[7,1]},{"f_size":74,'
    '"identity":{"counterexample":[61,19],"family":"wedge-power-j","lhs_chain":[61,'
    '47,33,19],"params":{"j":3,"m":7,"q":3},"stats":{"mode":"pair","size":74},'
    '"verdict":"fails"},"j":3,"pair":[61,19]},{"f_size":1040,'
    '"identity":{"counterexample":[835,217],"family":"wedge-power","lhs_chain":[835,'
    '629,423,217],"params":{"m":7,"q":3},"stats":{"mode":"pair","size":1040},'
    '"verdict":"fails"},"j":2,"pair":[835,217]}]},"parameters":{"m":7,"q":3},'
    '"stats":{},"tool_version":"0.1.0","verdict":"verified"}'
)


# Canonical certificates as written before the closure kernel evaluated
# argument blocks along their prefix trees; the order of the tuples, the work
# count and every provenance term must stay as they were.
_JONSSON_I5 = (
    '{"claim":"level","evidence":{"found":true,"generators":["I:5"],"level":3,'
    '"scheme":"jonsson","stats":{"free_size":38},"terms":["x0",["u","x0","x0","x0",'
    '"x1","x2"],["i","x2",["i","x1","x0"]],"x2"],"verified":true},'
    '"parameters":{"expect":3,"fixtures":"I:5","scheme":"jonsson"},"stats":{},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)
_DAY_N24 = (
    '{"claim":"level","evidence":{"found":true,"generators":["N(2,4)@2"],"level":5,'
    '"scheme":"day","stats":{"free_size":54},"terms":["x0",["u","x0","x0","x1","x3"],'
    '["u","x0","x0","x2","x3"],["u","x0","x1","x3","x3"],["u","x0","x2","x3","x3"],'
    '"x3"],"verified":true},"parameters":{"expect":5,"fixtures":"N:2:4",'
    '"scheme":"day"},"stats":{},"tool_version":"0.1.0","verdict":"verified"}'
)
_NU4_IF5 = (
    '{"claim":"search","evidence":{"complete":true,"found":false,'
    '"generators":["If:5"],"params":{"arity":4},"scheme":"nu","term":null,'
    '"verified":false},"parameters":{"arity":4,"expect":"absent","fixtures":"If:5",'
    '"m":0,"scheme":"nu"},"stats":{"engine":"closure","size":47},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)
_NU5_I5 = (
    '{"claim":"search","evidence":{"complete":true,"found":true,"generators":["I:5"],'
    '"params":{"arity":5},"scheme":"nu","term":["u","x0","x1","x2","x3","x4"],'
    '"verified":true},"parameters":{"arity":5,"expect":"found","fixtures":"I:5",'
    '"m":0,"scheme":"nu"},"stats":{"engine":"closure","size":39},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)


# Written before the local engine kept its closures as subpowers and shared
# argument trees between them: its verdict and stats must stay as they were.
_NU4_I5 = (
    '{"claim":"search","evidence":{"complete":true,"found":false,"generators":["I:5"],'
    '"params":{"arity":4},"scheme":"nu","term":null,"verified":false},'
    '"parameters":{"arity":4,"expect":"absent","fixtures":"I:5","m":0,"scheme":"nu"},'
    '"stats":{"engine":"local","size":94},"tool_version":"0.1.0","verdict":"verified"}'
)


# Written before one candidate filter served both the enumeration of the
# local engine and the membership search: the box order, and so the verdict
# and the stats, must stay as they were.
_DISSENT_UNANIMITY3_N24 = (
    '{"claim":"search","evidence":{"complete":true,"found":false,'
    '"generators":["N(2,4)@2"],"params":{"m":3},"scheme":"dissent-unanimity",'
    '"term":null,"verified":false},"parameters":{"arity":0,"expect":"absent",'
    '"fixtures":"N:2:4","m":3,"scheme":"dissent-unanimity"},'
    '"stats":{"engine":"local","size":250},"tool_version":"0.1.0","verdict":"verified"}'
)
_LONE_DISSENT5_I5 = (
    '{"claim":"search","evidence":{"complete":true,"found":false,"generators":["I:5"],'
    '"params":{"arity":5},"scheme":"lone-dissent","term":null,"verified":false},'
    '"parameters":{"arity":5,"expect":"absent","fixtures":"I:5","m":0,'
    '"scheme":"lone-dissent"},"stats":{"engine":"local","size":224},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)


# Level certificates of the schemes with unequal link patterns, or with
# links that differ by parity, written before the chain search and the
# alternating-path search became one routine: the lex-least minimal chain,
# and so every term, must stay as it was.
_ALVIN_N24 = (
    '{"claim":"level","evidence":{"found":true,"generators":["N(2,4)@2"],"level":5,'
    '"scheme":"alvin","stats":{"free_size":10},"terms":["x0","x0",["u","x0","x0",'
    '"x1","x2"],["u","x0","x0","x2","x2"],["u","x0","x1","x2","x2"],"x2"],'
    '"verified":true},"parameters":{"expect":5,"fixtures":"N:2:4","scheme":"alvin"},'
    '"stats":{},"tool_version":"0.1.0","verdict":"verified"}'
)
_ALVIN_I4 = (
    '{"claim":"level","evidence":{"found":true,"generators":["I:4"],"level":3,'
    '"scheme":"alvin","stats":{"free_size":38},"terms":["x0",["i","x0",["i","x1",'
    '"x2"]],["u","x0","x1","x2","x2"],"x2"],"verified":true},'
    '"parameters":{"expect":3,"fixtures":"I:4","scheme":"alvin"},"stats":{},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)
_HAGEMANN_MITSCHKE_I4 = (
    '{"claim":"level","evidence":{"found":true,"generators":["I:4"],"level":3,'
    '"scheme":"hagemann-mitschke","stats":{"free_size":38},"terms":["x0",["i","x0",'
    '["i","x1","x2"]],["i","x2",["i","x1","x0"]],"x2"],"verified":true},'
    '"parameters":{"expect":3,"fixtures":"I:4","scheme":"hagemann-mitschke"},'
    '"stats":{},"tool_version":"0.1.0","verdict":"verified"}'
)
_HAGEMANN_MITSCHKE_N24 = (
    '{"claim":"level","evidence":{"found":false,"generators":["N(2,4)@2"],'
    '"level":null,"scheme":"hagemann-mitschke","stats":{"free_size":10},"terms":null,'
    '"verified":true},"parameters":{"expect":null,"fixtures":"N:2:4",'
    '"scheme":"hagemann-mitschke"},"stats":{},"tool_version":"0.1.0",'
    '"verdict":"verified"}'
)
_DIRECTED_JONSSON_N24 = (
    '{"claim":"level","evidence":{"found":true,"generators":["N(2,4)@2"],"level":2,'
    '"scheme":"directed-jonsson","stats":{"free_size":10},"terms":[["u","x0","x0",'
    '"x1","x2"],["u","x0","x1","x2","x2"]],"verified":true},"parameters":{"expect":2,'
    '"fixtures":"N:2:4","scheme":"directed-jonsson"},"stats":{},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)
_DIRECTED_JONSSON_I4 = (
    '{"claim":"level","evidence":{"found":true,"generators":["I:4"],"level":2,'
    '"scheme":"directed-jonsson","stats":{"free_size":38},"terms":[["u","x0","x0",'
    '"x1","x2"],["u","x0","x1","x2","x2"]],"verified":true},"parameters":{"expect":2,'
    '"fixtures":"I:4","scheme":"directed-jonsson"},"stats":{},"tool_version":"0.1.0",'
    '"verdict":"verified"}'
)
_DIRECTED_MINORITY_SUM34 = (
    '{"claim":"level","evidence":{"found":true,"generators":["sum:3:4"],"level":2,'
    '"scheme":"directed-minority","stats":{"free_size":9},"terms":[["s","x0","x0",'
    '"x1","x2"],["s","x0","x1","x2","x2"]],"verified":true},"parameters":{"expect":2,'
    '"fixtures":"sum:3:4","scheme":"directed-minority"},"stats":{},'
    '"tool_version":"0.1.0","verdict":"verified"}'
)
_DIRECTED_MINORITY_SUM33 = (
    '{"claim":"level","evidence":{"found":true,"generators":["sum:3:3"],"level":2,'
    '"scheme":"directed-minority","stats":{"free_size":27},"terms":[["s","x2",["s",'
    '"x0","x0","x0"],["s","x0","x0","x1"]],["s","x1",["s","x0","x0","x2"],["s","x0",'
    '"x0","x2"]]],"verified":true},"parameters":{"expect":2,"fixtures":"sum:3:3",'
    '"scheme":"directed-minority"},"stats":{},"tool_version":"0.1.0",'
    '"verdict":"verified"}'
)


@pytest.mark.parametrize("build, golden", [
    (lambda: sharpness_certificate(9, 2), _SHARPNESS_9_2),
    (lambda: induction_certificate(7, 3), _INDUCTION_7_3),
    (lambda: level_certificate("jonsson", "I:5", expect=3), _JONSSON_I5),
    (lambda: level_certificate("day", "N:2:4", expect=5), _DAY_N24),
    (lambda: search_certificate("nu", "If:5", arity=4, expect="absent"), _NU4_IF5),
    (lambda: search_certificate("nu", "I:5", arity=5, expect="found"), _NU5_I5),
    (lambda: search_certificate("nu", "I:5", arity=4, expect="absent"), _NU4_I5),
    (lambda: search_certificate("dissent-unanimity", "N:2:4", m=3, expect="absent"),
     _DISSENT_UNANIMITY3_N24),
    (lambda: search_certificate("lone-dissent", "I:5", arity=5, expect="absent"),
     _LONE_DISSENT5_I5),
], ids=["sharpness-9-2", "induction-7-3", "level-jonsson-I5", "level-day-N24",
        "search-nu4-If5", "search-nu5-I5", "search-nu4-I5-local",
        "search-dissent-unanimity3-N24-local", "search-lone-dissent5-I5-local"])
def test_certificates_match_their_golden_bytes(build, golden):
    assert dumps_canonical(build()) == golden + "\n"


@pytest.mark.parametrize("scheme, fixtures, level, golden", [
    ("alvin", "N:2:4", 5, _ALVIN_N24),
    ("alvin", "I:4", 3, _ALVIN_I4),
    ("hagemann-mitschke", "I:4", 3, _HAGEMANN_MITSCHKE_I4),
    ("hagemann-mitschke", "N:2:4", None, _HAGEMANN_MITSCHKE_N24),
    ("directed-jonsson", "N:2:4", 2, _DIRECTED_JONSSON_N24),
    ("directed-jonsson", "I:4", 2, _DIRECTED_JONSSON_I4),
    ("directed-minority", "sum:3:4", 2, _DIRECTED_MINORITY_SUM34),
    ("directed-minority", "sum:3:3", 2, _DIRECTED_MINORITY_SUM33),
])
def test_level_certificates_match_their_golden_bytes(scheme, fixtures, level, golden):
    assert dumps_canonical(level_certificate(scheme, fixtures, expect=level)) == golden + "\n"
