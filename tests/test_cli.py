"""Command-line surface: parsing, subcommands, exit codes, reports."""

import json
import re
import shlex
from random import Random

import pytest

from braidcong.claims import SuiteConfig
from braidcong.cli import format_word, main, parse_word
from braidcong.words import random_word


def test_parse_word_grammar():
    assert parse_word("1 2 -1", 3).letters == (1, 2, -1)
    assert parse_word("1,2,-1", 3).letters == (1, 2, -1)
    assert parse_word(" 1 ,  2\t-1 ", 3).letters == (1, 2, -1)
    assert parse_word("", 5).letters == ()
    assert parse_word("+2", 3).letters == (2,)


def test_parse_word_errors_carry_positions():
    with pytest.raises(ValueError, match="column 1"):
        parse_word("3", 3)
    with pytest.raises(ValueError, match="column 3"):
        parse_word("1 0 2", 3)
    with pytest.raises(ValueError, match="column 3.*not a signed integer"):
        parse_word("1 x", 3)
    with pytest.raises(ValueError, match="not a signed integer"):
        parse_word("1.5", 3)
    with pytest.raises(ValueError, match="out of range"):
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



@pytest.mark.parametrize(
    "argv",
    [
        ["burau", "--n", "4"],
        ["member", "--n", "4", "--m", "2"],
        ["cryst", "nf", "--n", "4"],
        ["cryst", "order", "--n", "4"],
        ["cryst", "power", "--n", "4", "--m", "3"],
    ],
    ids=["burau", "member", "cryst-nf", "cryst-order", "cryst-power"],
)
def test_word_commands_report_the_parsed_word(capsys, tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--word", " 1,2 ,-1", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["word"] == "1 2 -1"


def test_unwritable_json_path_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    assert main(["cryst", "nf", "--n", "3", "--word", "1", "--json", str(path)]) == 2
    printed = capsys.readouterr()
    assert printed.out.startswith("permutation: 2 1 3\n")
    assert printed.err.startswith("error: [Errno 2] No such file or directory")

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


def test_verify_prints_a_failing_claims_detail(capsys):
    assert main(["verify", "--claims", "c10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("c10-power-map-structure  fail"))
    assert lines[k + 1].startswith(" ") and "twisted rule" in lines[k + 1]


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


def test_verify_honors_seed_zero(capsys, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "0", "--claims", "c03", "--json", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["meta"]["seed"] == 0
    assert data["claims"][0]["seed"] == "0:c03"


def test_verify_rejects_claim_filters_that_select_nothing(capsys):
    for text in ("c99", ",", "c99,x", ""):
        assert main(["verify", "--claims", text]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "no claim matches" in printed.err
    with pytest.raises(ValueError, match=r"no claim matches \['c99'\]"):
        SuiteConfig(claims=("c99",))
    assert SuiteConfig(claims=("c05",)).claims == ("c05",)
    # a bare string would be read one character at a time, and the prefix
    # "c" or "" matches every claim
    with pytest.raises(ValueError, match="got the string 'c05'"):
        SuiteConfig(claims="c05")
    for claims in (("",), ("c05", "")):
        with pytest.raises(ValueError, match="empty claim id"):
            SuiteConfig(claims=claims)


def test_strand_counts_below_two_exit_two(capsys):
    assert main(["image", "--n", "-3", "--m", "3", "--center"]) == 2
    assert main(["abelianization", "--n", "0", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("strand count must be at least 2") == 2


def test_moduli_below_two_exit_two(capsys):
    assert main(["image", "--n", "3", "--m", "1"]) == 2
    assert main(["member", "--n", "3", "--word", "1", "--m", "1"]) == 2
    assert main(["burau", "--n", "3", "--word", "1", "--mod", "1"]) == 2
    assert capsys.readouterr().err.count("modulus must be at least 2") == 3


def test_verify_has_no_cap_or_config_option(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 5\n")
    for argv in (["--cap", "10"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--claims", "c06", *argv])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["burau", "--word", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2


_TIMED = re.compile(r" *\d+(\.\d+)? ms")
_NF_4 = {"1,2": -1, "1,3": 0, "1,4": 0, "2,3": 0, "2,4": 0, "3,4": 0}
_CENTER_33 = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 2], [2, 0, 2], [2, 1, 1]]]
_IMAGE_33 = {"center": _CENTER_33, "center_order": 2, "m": 3, "n": 3, "order": 24}
_NOTE = (
    "note: the reduction obeys the twisted rule class(ab) = pair_action(perm(b))"
    " . class(a) + class(b); plain additivity fails off the lattice\n"
)
_C01 = {
    "computed": {"checked": 162, "failures": []},
    "description": "m-th powers of the generators lie in the level-m subgroup",
    "detail": "",
    "expected": {"checked": 162, "failures": []},
    "id": "c01-generator-power-kernel",
    "parameters": {"m": "2..7", "n": "3..8"},
    "seed": "",
    "status": "pass",
}
_C05 = {
    "computed": {"nontrivial": []},
    "description": "even chain twist powers act trivially over the integers",
    "detail": "",
    "expected": {"nontrivial": []},
    "id": "c05-torelli-chain-kernel",
    "parameters": {"cases": ["3,2", "4,2", "5,2", "5,4", "6,4", "7,4"]},
    "seed": "",
    "status": "pass",
}
_PINNED = [
    (
        "burau --n 3 --word '1 2 -1'",
        0,
        "[  2  -2  1 ]\n[  0   1  0 ]\n[ -1   2  0 ]\n",
        "",
        {"matrix": [[2, -2, 1], [0, 1, 0], [-1, 2, 0]], "mod": None, "n": 3, "word": "1 2 -1"},
    ),
    (
        "burau --n 3 --word '1 1 1' --mod 3",
        0,
        "[ 1  0  0 ]\n[ 0  1  0 ]\n[ 0  0  1 ]\n",
        "",
        {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "mod": 3, "n": 3, "word": "1 1 1"},
    ),
    (
        "member --n 3 --word '1 1' --m 2",
        0,
        "true\n",
        "",
        {"m": 2, "member": True, "n": 3, "word": "1 1"},
    ),
    (
        "image --n 3 --m 3 --center",
        0,
        "image of the 3-strand braid group mod 3\norder: 24\ncenter order: 2\n"
        "[ 1  0  0 ]\n[ 0  1  0 ]\n[ 0  0  1 ]\n\n[ 1  1  2 ]\n[ 2  0  2 ]\n[ 2  1  1 ]\n\n",
        "",
        _IMAGE_33,
    ),
    ("image --n 3 --m 3 --center --order-only", 0, "24\n", "", _IMAGE_33),
    (
        "image --n 3 --m 3 --cap 5",
        2,
        "",
        "error: cap exceeded: image of (3, 3) exceeds the cap 5; partial size 5\n",
        None,
    ),
    ("image --n 3 --m 1", 2, "", "error: modulus must be at least 2, got 1\n", None),
    (
        "abelianization --n 3 --m 4",
        0,
        "n: 3\nm: 4\nindex: 48\nschreier_generators: 96\ninvariant_factors: []\nfree_rank: 6\n",
        "",
        {
            "free_rank": 6,
            "index": 48,
            "invariant_factors": [],
            "m": 4,
            "n": 3,
            "schreier_generators": 96,
        },
    ),
    (
        "abelianization --n 3 --m 4 --cap 5",
        2,
        "",
        "error: cap exceeded: image of (3, 4) exceeds the cap 5; partial size 5\n",
        None,
    ),
    (
        "cryst nf --n 4 --word '1 2 -1 3'",
        0,
        "permutation: 4 2 1 3\nlinking: (1,2)=-1 (1,3)=0 (1,4)=0 (2,3)=0 (2,4)=0 (3,4)=0\n",
        "",
        {"linking": _NF_4, "n": 4, "permutation": [4, 2, 1, 3], "word": "1 2 -1 3"},
    ),
    (
        "cryst nf --n 3 --word '1 x'",
        2,
        "",
        "error: bad word: column 3: 'x' is not a signed integer\n",
        None,
    ),
    (
        "cryst order --n 3 --word '1 2 -1'",
        0,
        "infinite\n",
        "",
        {"n": 3, "order": None, "word": "1 2 -1"},
    ),
    (
        "cryst power --n 3 --m 3 --word '1 2'",
        0,
        "permutation: 3 1 2\nlinking: (1,2)=0 (1,3)=1 (2,3)=1\n",
        "",
        {
            "linking": {"1,2": 0, "1,3": 1, "2,3": 1},
            "m": 3,
            "n": 3,
            "permutation": [3, 1, 2],
            "word": "1 2",
        },
    ),
    (
        "cryst power --n 3 --m 2 --word 1",
        2,
        "",
        "error: the power map is an endomorphism only for odd m, got 2\n",
        None,
    ),
    (
        "cryst power --n 3 --m -1 --word 1",
        2,
        "",
        "error: power must be positive, got -1\n",
        None,
    ),
    (
        "cryst quotient-check --n 3 --m 3 --samples 40 --seed 7",
        1,
        "relations hold on power images: True\nlattice generators scale by m: True\n"
        "additive failures: 20 / 40\n" + _NOTE + "status: fail\n",
        "",
        {
            "additive_failures": 20,
            "first_failure": {"lhs": [1, 1, 0], "rhs": [2, 1, 2]},
            "lattice_scaling": True,
            "m": 3,
            "n": 3,
            "relations_hold": True,
            "samples": 40,
            "seed": 7,
            "status": "fail",
        },
    ),
    (
        "cryst quotient-check --n 3 --m 3 --samples 0",
        2,
        "",
        "error: samples must be positive, got 0\n",
        None,
    ),
    (
        "verify --claims c01,c05",
        0,
        "c01-generator-power-kernel  pass <t> ms\n"
        "c05-torelli-chain-kernel    pass <t> ms\n"
        "total: 2 pass, 0 fail ( <t> ms)\n",
        "",
        {
            "claims": [_C01, _C05],
            "meta": {
                "claims_selected": ["c01-generator-power-kernel", "c05-torelli-chain-kernel"],
                "seed": 2026,
                "version": "0.1.0",
            },
        },
    ),
]


@pytest.mark.parametrize(
    "command, code, out, err, report", _PINNED, ids=[case[0] for case in _PINNED]
)
def test_command_output_is_pinned(capsys, tmp_path, command, code, out, err, report):
    """Exit code, stdout, stderr and JSON of each command, timing fields masked."""
    path = tmp_path / "report.json"
    assert main(shlex.split(command) + ["--json", str(path)]) == code
    printed = capsys.readouterr()
    assert _TIMED.sub(" <t> ms", printed.out) == out
    assert printed.err == err
    data = json.loads(path.read_text()) if path.exists() else None
    if data is not None:
        data.pop("runtime_ms", None)
        data.pop("timing", None)
    assert data == report
