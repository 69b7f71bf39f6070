import copy

import pytest

from finalg.certificates import (
    identity_certificate,
    induction_certificate,
    level_certificate,
    recheck,
    search_certificate,
    sharpness_certificate,
    toolkit_certificate,
)

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
