"""sha256 of `dumps_canonical` of every certificate the benchmark builds.

The cases are those of the benchmark's workloads, written out here so the
test does not depend on `bench/`: the `sharpness` workload's sharpness and
induction certificates, the `varieties` workload's chain levels (the paper's
generator families N:2:m .. N:ell:m and the implication expansions) and
near-unanimity searches, and the `recheck` workload's set-up certificates.
The digests cover the stats too, so a change that is meant to keep every
answer (a refactor, a speed-up) must keep every digest.
"""

import hashlib

import pytest

from finalg import certificates
from finalg.io import dumps_canonical


def _chain_fixtures(m: int) -> str:
    return ",".join(f"N:{j}:{m}" for j in range(2, (m + 1) // 2 + 1))


def _cases() -> dict:
    cases = {}
    for m, q in [(m, 2) for m in range(3, 10)] + [(m, 3) for m in range(3, 8)]:
        cases[f"sharpness-{m}-{q}"] = lambda m=m, q=q: certificates.sharpness_certificate(m, q)
    for m, q in [(5, 2), (6, 2), (7, 2), (5, 3), (6, 3)]:
        cases[f"induction-{m}-{q}"] = lambda m=m, q=q: certificates.induction_certificate(m, q)
    levels = {"jonsson": lambda m: 2 * m - 4, "alvin": lambda m: 2 * m - 3,
              "hagemann-mitschke": lambda m: None, "directed-jonsson": lambda m: m - 2}
    for m in range(3, 6):
        for scheme, level in levels.items():
            cases[f"level-{scheme}-{m}"] = lambda s=scheme, m=m, lv=level(m): (
                certificates.level_certificate(s, _chain_fixtures(m), expect=lv))
    for m in (3, 4):
        cases[f"level-day-{m}"] = lambda m=m: certificates.level_certificate(
            "day", _chain_fixtures(m), expect=2 * m - 3)
    for fx in ("I:4", "If:4", "I:5", "If:5"):
        for scheme in ("jonsson", "hagemann-mitschke"):
            cases[f"level-{scheme}-{fx}"] = lambda s=scheme, fx=fx: (
                certificates.level_certificate(s, fx, expect=3))
        m = int(fx.split(":")[1])
        for arity, expect in ((m, "found"), (m - 1, "absent")):
            cases[f"search-nu{arity}-{fx}"] = lambda fx=fx, a=arity, e=expect: (
                certificates.search_certificate("nu", fx, arity=a, expect=e))
    cases["search-nu3-N:2:4"] = lambda: certificates.search_certificate(
        "nu", "N:2:4", arity=3, expect="absent")
    # the recheck workload's certificates not built above
    cases["identity-wedge-power-6-3"] = lambda: certificates.identity_certificate(
        "wedge-power", 6, 3, expect="fails")
    cases["identity-zigzag-even-5-2"] = lambda: certificates.identity_certificate(
        "zigzag-even", 5, 2, expect="holds")
    cases["toolkit-LD2"] = lambda: certificates.toolkit_certificate("LD2")
    return cases


CASES = _cases()

# the recheck workload's ten set-up certificates, by case
RECHECK = ["sharpness-6-2", "sharpness-5-3", "induction-5-3", "identity-wedge-power-6-3",
           "identity-zigzag-even-5-2", "level-jonsson-4", "level-hagemann-mitschke-I:4",
           "search-nu4-I:4", "search-nu3-N:2:4", "toolkit-LD2"]

DIGESTS = {
    "sharpness-3-2": "d7e665aa7cfb009591e0acb53690e20414f4a9f79779c59278d11e2bd2d2e2b1",
    "sharpness-4-2": "a5a066f952bf6ea6ec109ad1469e954522d91c450425dece66709e366bb95b58",
    "sharpness-5-2": "de28fbec997189651d6af2bc6bb0df0e130c45787885e8ea1a9f81573b6e0d9f",
    "sharpness-6-2": "d7460cb1f69c1831b21b6805d8f33cfb70048a3654e67aeef2e648973f527cac",
    "sharpness-7-2": "9663a442a2ffb24ac3c3dfd7f10c9565b5eaf25ef40c29b2ed60713c3e54eed4",
    "sharpness-8-2": "fa38656be07afd643e5d2ed24e1e31ed300fd4c487568904e724132b68405306",
    "sharpness-9-2": "455369c7a8a1ee14cbd4547f0e34542553b056496c0e82448ea2c30fb5229fb7",
    "sharpness-3-3": "3d5f0e5296a1e61997ce580777a0fedcba86c764a11b4d30071e6255c3181bb6",
    "sharpness-4-3": "5629056daad682183502166ca4fc4805961f89259771de553a23c9b844bb4d98",
    "sharpness-5-3": "3b854cc6e8aa30c1aa60324b6c5c66e6b7c9d457a46ac273be8391923a33ff2e",
    "sharpness-6-3": "4cc9f7074a4b62b97d42358c50d2881842a87ec1a9e3667b6f38c03233c0dbac",
    "sharpness-7-3": "755567dbec4ae8048306f3cd7cc3512ed3805e7a7751b245c467506a70556ebf",
    "induction-5-2": "1999206a535eea7191104e2d507b67c2ad75e245ae743a70944fefde0718822e",
    "induction-6-2": "d1dff3817c067439cc80337d2410b35e290e7ec978146be2ba561f3691acd00b",
    "induction-7-2": "b18d2f92a6808475f7207729536ba58e8ca55aee7ba9223a2ffd252171c4f91b",
    "induction-5-3": "72d2bdb1eccd13f6b80cda59fbf252436bc36308cf69f29e4410e210ab7ab206",
    "induction-6-3": "eb64b59a09d030cac4e9faf293ca43688b2d726c59200dd2c7d64f9ff5550213",
    "level-jonsson-3": "14cc31fa38a1141b7e2078408433b7af285b9f8403cdc01fc8f579f65bc9f9a7",
    "level-alvin-3": "6184b9fffa117bb4ab4a6c72adf0257e126e7b3d1fdcacbcddbb12a67b3341ae",
    "level-hagemann-mitschke-3": "fcf929a601c16c5a45e8de50a8a56fd97504e507fd4f49b5ede8fd5d2aa14f97",
    "level-directed-jonsson-3": "88713c665f66cdffc54f549aea031265c100b2a127540de8a5ee94129d849123",
    "level-jonsson-4": "f519b2abb1107fe5bc95f453b8456bce61a7c82cdc0fa51f18d7a0e7d413566b",
    "level-alvin-4": "cb21d6cc823e8aa86b6f2a0c35ea49cd708aa95ec7b2c8a64f6f936a7a4d3301",
    "level-hagemann-mitschke-4": "02bf5a47eb09a0ed33e9200df48ff73ead3c9ee7adccab4253dadacca070dfe5",
    "level-directed-jonsson-4": "50734ab0ff7808b544daab064b785853e5b6bea14b5cd0f52e650038d1723177",
    "level-jonsson-5": "833c04ea0d2515dbd8e676398bb7e806e7a232007b18d044cf3d22c46ed55d09",
    "level-alvin-5": "93ccb1281f96ba518a6b4e0b137c14011a89bb40fd0ac4dc6fe341052dbd1c8d",
    "level-hagemann-mitschke-5": "cf4c220b4e267d587ef664812fdfc3ef8cfcb9ee02faf12999970e028a12e670",
    "level-directed-jonsson-5": "fb5ea1d573cf578a3cd4e99d14b676dc18844b771fdbdaa961b83e2d76061870",
    "level-day-3": "1cc80c5615ef3575cd891e1441b02c94b98385185510c6dae292333f074af546",
    "level-day-4": "9b241be27cac20b1f78c651617c44fb1cc6ecb25cd8e792f1ecf9361039f4afa",
    "level-jonsson-I:4": "549e3d2c7512218df093f58fcfcd5a098aa6701cc90d216d936afb03102b2dc9",
    "level-hagemann-mitschke-I:4": "9eac8ee7fa3eb0883273972b05538b37b32ef7345a0dff3d725a820fc2d2ed4d",
    "search-nu4-I:4": "eeda97352866be06b0e3334135678e423a7bbb6dd50bc4c8c0d078fbabba09da",
    "search-nu3-I:4": "6834342606a095d333889cb4bd1902c4fc7e988d276ebd97527eb6c137a0ede5",
    "level-jonsson-If:4": "b2f0648bfd85c3e4873d3e80134d88cee4e086f3edbe91c5bae9592e25f944e1",
    "level-hagemann-mitschke-If:4": "828620902b068e537a77396f4dcf2a821284f2c9ea6be1ce50853dd0cfabbe05",
    "search-nu4-If:4": "a1215d47d3615bb44082b497291d8d6afb40fc224bf720cc662063c4d047eb06",
    "search-nu3-If:4": "080bde8e5c81dd30c2d7676b693ca7412270830250570ada17f5de676433f7d4",
    "level-jonsson-I:5": "2cb978d80665ae494510f863e50c92b50e7af8c3a207a54001de246fb1c16886",
    "level-hagemann-mitschke-I:5": "ccccec6de453218805760dcafe464d13450cdbd99285cc5af6a844988d90e84b",
    "search-nu5-I:5": "595310c752e20e0d0e439ff81ebab199b0da79abb05379d0c98d4985077ed646",
    "search-nu4-I:5": "6e6dd4052947f427c40e0ce523ef1ad19f24e3f4cebed85f7eb96556c7a7a088",
    "level-jonsson-If:5": "eb935fb29521cf8a3d04a6e20febe3580e3d21229d4b0200d3a9f0e3e54ae658",
    "level-hagemann-mitschke-If:5": "4e18ff674d91f3870da01a8665ed5d6d928c1aa5819e3cb1df04cbe674d05c59",
    "search-nu5-If:5": "a5ce5c246f4ec3e7a3e9e42ebe38cdf8dfc1a4b121f3b213b995876807137699",
    "search-nu4-If:5": "1042aaa8fbae7744fe9ca492d6c5da6e5a9f4af9571a93ae8f69bea800d22991",
    "search-nu3-N:2:4": "258e62f35f0435d1193830f83f523db652b40376ad590740f308136e3e5e8a27",
    "identity-wedge-power-6-3": "88995011c5d047b36248fe238e865131c532e0291e85ef8013b490b49394fdd6",
    "identity-zigzag-even-5-2": "eac8d8f470cd287c6fb84a2ad9ecef92cf6bf9a3ef79aab3d046bdb1ac921ddf",
    "toolkit-LD2": "dbf9d32558899c7e2ebdedaae71a092e50c42a08a3464048fb144aeb17ea8aa9",
}


def test_every_benchmark_certificate_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)
    assert set(RECHECK) <= set(CASES)
    kinds = [name.split("-")[0] for name in CASES]
    assert [kinds.count(k) for k in ("sharpness", "induction", "level", "search")] == [
        12, 5, 22, 9]


@pytest.mark.parametrize("name", list(DIGESTS))
def test_certificate_digest(name):
    text = dumps_canonical(CASES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
