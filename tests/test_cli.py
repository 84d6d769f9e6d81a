"""Command-line surface: parsing, subcommands, exit codes, reports."""

import json
from random import Random

import pytest

from braidcong.claims import SuiteConfig
from braidcong.cli import WordParseError, format_word, main, parse_word
from braidcong.words import random_word


def test_parse_word_grammar():
    assert parse_word("1 2 -1", 3).letters == (1, 2, -1)
    assert parse_word("1,2,-1", 3).letters == (1, 2, -1)
    assert parse_word(" 1 ,  2\t-1 ", 3).letters == (1, 2, -1)
    assert parse_word("", 5).letters == ()
    assert parse_word("+2", 3).letters == (2,)


def test_parse_word_errors_carry_positions():
    with pytest.raises(WordParseError, match="column 1"):
        parse_word("3", 3)
    with pytest.raises(WordParseError, match="column 3"):
        parse_word("1 0 2", 3)
    with pytest.raises(WordParseError, match="column 3.*not a signed integer"):
        parse_word("1 x", 3)
    with pytest.raises(WordParseError, match="not a signed integer"):
        parse_word("1.5", 3)
    with pytest.raises(WordParseError, match="out of range"):
        parse_word("-4", 4)


def test_word_round_trip():
    rng = Random(901)
    for _ in range(50):
        n = rng.randint(2, 7)
        w = random_word(rng, n, 20)
        assert parse_word(format_word(w), n) == w


def test_burau_command(capsys, tmp_path):
    out = tmp_path / "burau.json"
    assert main(["burau", "--n", "3", "--word", "1", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "2" in printed and "-1" in printed
    data = json.loads(out.read_text())
    assert data["matrix"] == [[2, -1, 0], [1, 0, 0], [0, 0, 1]]
    assert data["mod"] is None

    assert main(["burau", "--n", "3", "--word", "1", "--mod", "2"]) == 0
    printed = capsys.readouterr().out
    assert "[ 0  1  0 ]" in printed


def test_burau_command_rejects_bad_words(capsys):
    assert main(["burau", "--n", "3", "--word", "7"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_member_command(capsys):
    assert main(["member", "--n", "3", "--word", "1 1", "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", "--n", "3", "--word", "1", "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_image_command(capsys, tmp_path):
    assert main(["image", "--n", "3", "--m", "5", "--order-only"]) == 0
    assert capsys.readouterr().out.strip() == "120"
    out = tmp_path / "image.json"
    assert main(["image", "--n", "3", "--m", "3", "--center", "--json", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["order"] == 24
    assert data["center_order"] == 2
    assert len(data["center"]) == 2


def test_image_command_cap(capsys):
    assert main(["image", "--n", "3", "--m", "3", "--cap", "5"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_abelianization_command(capsys, tmp_path):
    out = tmp_path / "ab.json"
    assert main(["abelianization", "--n", "3", "--m", "4", "--json", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data) == {
        "n",
        "m",
        "index",
        "schreier_generators",
        "invariant_factors",
        "free_rank",
        "runtime_ms",
    }
    assert data["n"] == 3 and data["m"] == 4
    assert data["index"] == 48
    assert data["schreier_generators"] == 96
    assert data["invariant_factors"] == []
    assert data["free_rank"] == 6


def test_cryst_nf_command(capsys, tmp_path):
    out = tmp_path / "nf.json"
    assert main(["cryst", "nf", "--n", "3", "--word", "1 1 1", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "permutation: 2 1 3" in printed
    assert "(1,2)=1" in printed
    data = json.loads(out.read_text())
    assert data["permutation"] == [2, 1, 3]
    assert data["linking"] == {"1,2": 1, "1,3": 0, "2,3": 0}


def test_cryst_order_command(capsys):
    assert main(["cryst", "order", "--n", "3", "--word", "1 2 1 2 1 2"]) == 0
    assert capsys.readouterr().out.strip() == "infinite"
    assert main(["cryst", "order", "--n", "3", "--word", ""]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cryst_power_command(capsys):
    assert main(["cryst", "power", "--n", "3", "--m", "3", "--word", "1"]) == 0
    printed = capsys.readouterr().out
    assert "permutation: 2 1 3" in printed
    assert "(1,2)=1" in printed
    assert main(["cryst", "power", "--n", "3", "--m", "2", "--word", "1"]) == 2
    assert "odd" in capsys.readouterr().err


def test_cryst_quotient_check_command(capsys, tmp_path):
    out = tmp_path / "qc.json"
    code = main(
        [
            "cryst",
            "quotient-check",
            "--n",
            "3",
            "--m",
            "3",
            "--samples",
            "60",
            "--json",
            str(out),
        ]
    )
    printed = capsys.readouterr().out
    # plain additivity genuinely fails off the lattice, so this reports fail
    assert code == 1
    assert "twisted rule" in printed
    data = json.loads(out.read_text())
    assert data["relations_hold"] is True
    assert data["lattice_scaling"] is True
    assert data["additive_failures"] > 0
    assert data["status"] == "fail"


def test_cryst_quotient_check_rejects_strand_counts_below_two(capsys):
    assert main(["cryst", "quotient-check", "--n", "1", "--m", "3"]) == 2
    assert capsys.readouterr().err == "error: strand count must be at least 2, got 1\n"


def test_cryst_quotient_check_rejects_sample_counts_below_one(capsys):
    for samples in ("0", "-3"):
        argv = ["cryst", "quotient-check", "--n", "3", "--m", "3", "--samples", samples]
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == f"error: samples must be positive, got {samples}\n"


def test_cryst_quotient_check_report_is_pinned(capsys, tmp_path):
    """Frozen from the command's output before it shared the c10 loop."""
    out = tmp_path / "qc.json"
    argv = ["cryst", "quotient-check", "--n", "3", "--m", "3", "--samples", "40"]
    assert main(argv + ["--seed", "7", "--json", str(out)]) == 1
    capsys.readouterr()
    assert json.loads(out.read_text()) == {
        "additive_failures": 20,
        "first_failure": {"lhs": [1, 1, 0], "rhs": [2, 1, 2]},
        "lattice_scaling": True,
        "m": 3,
        "n": 3,
        "relations_hold": True,
        "samples": 40,
        "seed": 7,
        "status": "fail",
    }


def test_verify_filtering(capsys, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--claims", "c01,c05", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "c01-generator-power-kernel" in printed
    assert "2 pass" in printed
    data = json.loads(out.read_text())
    assert [c["id"] for c in data["claims"]] == [
        "c01-generator-power-kernel",
        "c05-torelli-chain-kernel",
    ]
    assert all(c["status"] == "pass" for c in data["claims"])
    assert set(data) == {"meta", "claims", "timing"}


def test_verify_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        main(["verify", "--claims", "c03,c04", "--seed", "7", "--json", str(p)])
        capsys.readouterr()
    bodies = []
    for p in paths:
        data = json.loads(p.read_text())
        del data["timing"]
        bodies.append(json.dumps(data, sort_keys=True))
    assert bodies[0] == bodies[1]


def test_verify_config_file(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 5\nclaims = c02\n# coset cap stays default\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "c02-full-twist-order" in capsys.readouterr().out


def test_verify_flags_override_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 5\nelement_cap = 1000000\nclaims = c03 c06\n")
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["meta"]["seed"] == 5
    assert [c["status"] for c in data["claims"]] == ["pass", "pass"]
    assert data["claims"][0]["seed"] == "5:c03"
    argv = ["verify", "--config", str(cfg), "--seed", "7", "--cap", "10", "--json", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["meta"]["seed"] == 7
    assert [c["status"] for c in data["claims"]] == ["pass", "skipped"]
    assert data["claims"][0]["seed"] == "7:c03"
    capsys.readouterr()


def test_verify_settings_are_checked_alike_by_both_routes(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 0\nclaims = c03\n")
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["meta"]["seed"] == 0
    assert data["claims"][0]["seed"] == "0:c03"
    assert main(["verify", "--claims", "c03", "--seed", "0"]) == 0
    capsys.readouterr()
    for argv in (["verify", "--cap", "0"], ["verify", "--config", str(cfg), "--cap", "-1"]):
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "element_cap must be positive" in printed.err
    cfg.write_text("coset_cap = 0\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert "coset_cap must be positive" in printed.err


def test_verify_rejects_claim_filters_that_select_nothing(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    for text in ("c99", ",", "c99,x"):
        assert main(["verify", "--claims", text]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "no claim matches" in printed.err
    for line in ("claims = c99", "claims =", "claims = , "):
        cfg.write_text(line + "\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "no claim matches" in printed.err
    with pytest.raises(ValueError, match=r"no claim matches \['c99'\]"):
        SuiteConfig(claims=("c99",))
    assert SuiteConfig(claims=("c05",)).claims == ("c05",)


def test_strand_counts_below_two_exit_two(capsys):
    assert main(["image", "--n", "-3", "--m", "3", "--center"]) == 2
    assert main(["abelianization", "--n", "0", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("strand count must be at least 2") == 2


def test_verify_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert (
        "bad.cfg:1: unknown config key 'n' (allowed: claims, coset_cap, element_cap, seed)"
        in capsys.readouterr().err
    )


def test_verify_config_rejects_bad_values(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = x\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text("element_cap = -3\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_verify_caps_mark_claims_skipped(capsys):
    assert main(["verify", "--claims", "c06", "--cap", "10"]) == 0
    printed = capsys.readouterr().out
    assert "skipped" in printed
    assert "cap exceeded" in printed


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["burau", "--word", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
