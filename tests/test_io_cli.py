import json
import subprocess
import sys

import pytest

from finalg.algebras import AlgebraError, direct_product, make_chain_lattice, make_ujm_reduct
from finalg.cli import main
from finalg.fixtures import load_fixture, load_fixtures
from finalg.io import algebra_from_obj, algebra_to_obj, load_algebra, save_algebra

from template_oracle import template_filter


def algebras_equal(a, b):
    """Structural equality through the canonical document."""
    return algebra_to_obj(a) == algebra_to_obj(b)


def test_roundtrip_structural_and_byte_identical(tmp_path):
    alg = make_ujm_reduct(2, 2, 3)
    path = tmp_path / "alg.json"
    save_algebra(alg, str(path))
    loaded = load_algebra(str(path))
    assert algebras_equal(alg, loaded)
    second = tmp_path / "alg2.json"
    save_algebra(loaded, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_schema_validation_messages():
    with pytest.raises(AlgebraError, match="size"):
        algebra_from_obj({"ops": []})
    with pytest.raises(AlgebraError, match=r"ops\[0\].table"):
        algebra_from_obj({"size": 2, "ops": [{"name": "u", "arity": 2, "table": [0, 1]}]})
    with pytest.raises(AlgebraError, match=r"ops\[0\].arity"):
        algebra_from_obj({"size": 2, "ops": [{"name": "u", "arity": 0, "table": []}]})
    with pytest.raises(AlgebraError, match="out-of-range"):
        algebra_from_obj({"size": 2, "ops": [{"name": "u", "arity": 1, "table": [0, 7]}]})


def test_fixture_registry():
    assert algebras_equal(load_fixture("N:2:4"), make_ujm_reduct(2, 2, 4))
    assert algebras_equal(load_fixture("Nq:2:3:4"), make_ujm_reduct(4, 2, 3))
    assert algebras_equal(load_fixture("C:3"), make_chain_lattice(3))
    assert load_fixture("I:4").label == "I:4"
    assert load_fixture("If:5").label == "If:5"
    assert load_fixture("sum:3:4").size == 3
    assert load_fixture("LD2").signature() == (3, 4)
    assert len(load_fixtures("N:2:5, N:3:5")) == 2
    with pytest.raises(AlgebraError):
        load_fixture("N:2")
    with pytest.raises(AlgebraError):
        load_fixture("bogus:1")


def test_cli_build_and_level(tmp_path):
    out = tmp_path / "n24.json"
    assert main(["build", "fixture", "--fixture", "N:2:4", "--out", str(out)]) == 0
    assert algebras_equal(load_algebra(str(out)), make_ujm_reduct(2, 2, 4))
    assert main(["level", "--scheme", "jonsson", "--fixture", "N:2:3", "--expect", "2"]) == 0
    assert main(["level", "--scheme", "jonsson", "--fixture", "N:2:3", "--expect", "5"]) == 1


def test_cli_verify_and_recheck(tmp_path):
    cert = tmp_path / "sharp.json"
    assert main(["verify", "sharpness", "--m", "3", "--q", "2", "--out", str(cert)]) == 0
    assert main(["recheck", "--cert", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["verdict"] == "verified" and doc["tool_version"]
    # tampering with the evidence must fail the recheck
    doc["evidence"]["pair"] = [0, 0]
    cert.write_text(json.dumps(doc))
    assert main(["recheck", "--cert", str(cert)]) == 1


def test_cli_search_and_identity(tmp_path):
    assert main(["search", "--scheme", "nu", "--arity", "3", "--fixture", "N:2:4",
                 "--expect", "absent"]) == 0
    assert main(["search", "--scheme", "nu", "--arity", "3", "--fixture", "N:2:3",
                 "--expect", "found"]) == 0
    assert main(["check", "identity", "--family", "wedge-power", "--m", "3", "--q", "2",
                 "--expect", "fails"]) == 0


@pytest.mark.parametrize("argv, summary", [
    (["--scheme", "nu", "--arity", "3", "--fixture", "N:2:3"], "nu arity 3 on V(N:2:3): found"),
    (["--scheme", "nu-half", "--m", "3", "--fixture", "N:2:3"], "nu-half m 3 on V(N:2:3): found"),
    (["--scheme", "dissent-unanimity", "--m", "3", "--fixture", "sum:2:3"],
     "dissent-unanimity m 3 on V(sum:2:3): found"),
    (["--scheme", "maltsev", "--fixture", "N:2:3"], "maltsev on V(N:2:3): not found"),
])
def test_cli_search_summary_names_the_scheme_parameters(argv, summary, capsys):
    assert main(["search", *argv]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == summary


def test_cli_invalid_inputs():
    assert main(["level", "--scheme", "jonsson", "--fixture", "BAD"]) == 3
    assert main(["build", "fixture", "--fixture", "N:9", "--out", "/tmp/x.json"]) == 3


def test_cli_exit_codes_cover_cap(capsys):
    # the 12-ary chain reducts on four elements and the 14-ary ones on three
    # are past the table cap of the template subproduct's absorption checks
    for m, q in ((12, 3), (14, 2)):
        assert main(["verify", "induction", "--m", str(m), "--q", str(q)]) == 2
        assert "resource cap: absorption check on u needs a table" in capsys.readouterr().err


def test_cli_oversized_tables_exit_on_the_table_cap(capsys, tmp_path):
    # 3^30, 2^30 and 2^60 entries: refused before the table is allocated
    for argv, count in ((["verify", "sharpness", "--m", "30", "--q", "2"], 3**30),
                        (["verify", "induction", "--m", "30", "--q", "2"], 2**30),
                        (["build", "nu-reduct", "--m", "60", "--out", str(tmp_path / "x.json")],
                         2**60),
                        (["level", "--scheme", "jonsson", "--fixture", "N:2:60"], 2**60)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("resource cap: table of N(") and f" {count} entries" in err, argv
    assert not (tmp_path / "x.json").exists()


def test_cli_undecided_identity_exits_2(capsys):
    argv = ["check", "identity", "--family", "zigzag-even", "--q", "2", "--expect", "holds"]
    assert main([*argv, "--m", "9"]) == 2
    assert "FULL_PAIR_CAP" in capsys.readouterr().err
    assert main([*argv, "--m", "8"]) == 0
    assert main(["check", "identity", "--family", "dist", "--n", "13", "--m", "9", "--q", "2",
                 "--expect", "fails"]) == 0


def test_cli_level_cap(capsys):
    argv = ["level", "--scheme", "jonsson", "--fixture", "N:2:4", "--expect", "4"]
    assert main([*argv, "--cap", "3"]) == 2
    assert "resource cap: chain search exceeded 3 levels" in capsys.readouterr().err
    assert main([*argv, "--cap", "4"]) == 0


def test_cli_usage_errors_exit_invalid(capsys):
    # argparse's own exit code 2 would read as a resource cap
    for argv in (["check", "identity", "--family", "nope", "--m", "3", "--q", "2"],
                 ["level", "--scheme", "jonsson", "--fixture", "N:2:3", "--cap", "x"],
                 ["verify", "sharpness", "--m", "3"], ["nope"]):
        assert main(argv) == 3, argv
        assert "usage: finalg" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_cli_level_refuses_a_negative_cap(capsys):
    argv = ["level", "--scheme", "jonsson", "--fixture", "N:2:3", "--cap"]
    assert main([*argv, "-3"]) == 3
    assert "invalid input: max_level must be at least 0, not -3" in capsys.readouterr().err
    assert main([*argv, "0"]) == 2  # level 2 is past a cap of 0
    assert "chain search exceeded 0 levels" in capsys.readouterr().err


def test_cli_level_cap_counts_levels_of_directed_chains(capsys):
    # the chain t_1, t_2 has one link and level 2
    argv = ["level", "--scheme", "directed-jonsson", "--fixture", "N:2:4"]
    assert main([*argv, "--cap", "1"]) == 2
    assert "resource cap: chain search exceeded 1 levels" in capsys.readouterr().err
    assert main([*argv, "--cap", "2"]) == 0
    assert "directed-jonsson level of V(N:2:4) = 2" in capsys.readouterr().out


def test_cli_verify_induction_on_template_boxes(tmp_path):
    # the last stage's subproduct has 65,561 elements on 9 boxes
    cert = tmp_path / "induction.json"
    assert main(["verify", "induction", "--m", "10", "--q", "3", "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["verdict"] == "verified"
    assert [st["f_size"] for st in doc["evidence"]["stages"]] == [23, 269, 4115, 65561]


def test_cli_verify_induction_m11_q3(tmp_path):
    # the absorption and majority checks on 4**11-entry tables: about 2 s, 150 MB
    cert = tmp_path / "induction.json"
    assert main(["verify", "induction", "--m", "11", "--q", "3", "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["verdict"] == "verified"
    assert [st["f_size"] for st in doc["evidence"]["stages"]] == [8, 74, 1040, 16406, 262172]


@pytest.mark.parametrize("f", ["", "0,2,4,5"])
def test_cli_build_filtered_matches_the_element_filter(tmp_path, f):
    # third-step shape; the default F is all of A3 x A4, passed as one box
    out = tmp_path / "filtered.json"
    fixture = "Nq:2:5:3,Nq:2:5:3,Nq:3:5:3,N:2:5"
    args = ["build", "filtered", "--fixture", fixture, "--h", "2", "--k", "3",
            "--a", "2", "--d", "0", "--out", str(out)]
    assert main(args + (["--f", f] if f else [])) == 0
    doc = json.loads(out.read_text())
    algs = load_fixtures(fixture)
    f_ids = [int(x) for x in f.split(",")] if f else range(6)
    b_ids, tags = template_filter(direct_product(algs), f_ids, (0, 0, 0), 2, 0)
    assert doc["subuniverse"] == b_ids
    assert doc["templates"] == {str(e): list(t) for e, t in tags.items()}


def test_cli_build_filtered_refuses_a_malformed_f(tmp_path, capsys):
    argv = ["build", "filtered", "--fixture", "N:2:4,N:2:4,N:2:4,N:2:4", "--f", "1,a",
            "--out", str(tmp_path / "filtered.json")]
    assert main(argv) == 3
    assert "invalid input: --f takes comma-separated pair indices, not '1,a'" in \
        capsys.readouterr().err
    assert not (tmp_path / "filtered.json").exists()


def test_cli_verify_sharpness_past_the_element_routes(tmp_path):
    # B(11,2) needs 34.6M element multisets; its 10 boxes need 167,960
    cert = tmp_path / "sharp.json"
    assert main(["verify", "sharpness", "--m", "11", "--q", "2", "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["verdict"] == "verified" and doc["evidence"]["subuniverse_size"] == 19702
    assert main(["recheck", "--cert", str(cert)]) == 0


@pytest.mark.parametrize("scheme, fixture", [
    ("day", "N:2:5,N:3:5"),             # 4 generators: 168 elements, 5-ary operations
    ("jonsson", "N:2:7,N:3:7,N:4:7"),   # 3 generators: 49 elements, 7-ary operations
])
def test_cli_refuses_a_free_algebra_past_the_work_cap(scheme, fixture, capsys):
    # the closure is refused as soon as its elements force more work than
    # the cap, not after burning the whole budget
    assert main(["level", "--scheme", scheme, "--fixture", fixture]) == 2
    err = capsys.readouterr().err
    assert "free algebra too large to enumerate; closure: subpower work cap exceeded: " in err
    assert "cap 80000000; local: coordinate box of " in err


def test_cli_search_past_int64_keys_exits_on_the_element_cap(capsys):
    # nu-half(4) over the 3-element chain reducts of N(2,6) and N(3,6): the
    # closure over 90 three-element coordinates (rows keyed by three int64
    # words) is refused by the work bound at 403 elements, then the local
    # engine's box of 3**18 vectors by the element cap
    argv = ["search", "--scheme", "nu-half", "--m", "4", "--fixture", "Nq:2:6:3,Nq:3:6:3"]
    assert main(argv) == 2
    assert ("coordinate box of 387420489 vectors exceeds the element cap"
            in capsys.readouterr().err)


def test_cli_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "finalg.cli", "level", "--scheme", "jonsson",
         "--fixture", "N:2:3"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert "jonsson level" in out.stdout
