import copy

import pytest

from finalg.certificates import level_certificate, recheck, search_certificate

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
