"""CLI contract: exit codes, JSON schema conformance, text agreement."""

import json
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import nlie
from nlie.cli import main
from nlie.parser import parse_polynomial
from nlie.poly import context

SCHEMA = json.loads(
    (Path(nlie.__file__).parent / "schemas" / "report.schema.json").read_text())


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["exit_code"] == code
    return code, doc


CATALOGUE = [
    ("sl2", "", "sl2 with Casimir h^2/2 + 2ef"),
    ("elliptic", "--alpha Q", "Jacobian bracket of (x^3+y^3+z^3)/3 - alpha*xyz"),
    ("quadric", "--arity N", "N-ary bracket of x1^2 + ... + x_{N+1}^2"),
    ("nlie", "--alphas A1,...", "n-ary bracket of a diagonal quadratic form"),
    ("malcev-canonical", "", "simple 7-dim Malcev algebra, integer basis"),
    ("malcev-abg", "--alpha --beta --gamma", "scaled Malcev family"),
    ("malcev-splittable", "", "split Malcev form on (h,x,y,z,x',y',z')"),
]


def test_algebra_list(capsys):
    code, doc = run_json(capsys, "algebra", "list")
    assert code == 0
    assert doc["data"]["algebras"] == [
        {"name": n, "params": p, "description": d} for n, p, d in CATALOGUE]
    code, out, _ = run(capsys, "algebra", "list")
    assert code == 0
    assert out == "".join(f"{n:20s} {p:28s} {d}\n" for n, p, d in CATALOGUE)
    assert out.splitlines()[1] == (
        "elliptic             --alpha Q                    "
        "Jacobian bracket of (x^3+y^3+z^3)/3 - alpha*xyz")


def test_algebra_show(capsys):
    code, doc = run_json(capsys, "algebra", "show", "sl2")
    assert code == 0
    assert doc["data"]["arity"] == 2
    assert doc["data"]["variables"] == ["e", "f", "h"]
    code, _, err = run(capsys, "algebra", "show", "unknown-name")
    assert code == 2 and err


def test_bracket_text_and_json_agree(capsys):
    code, out, _ = run(capsys, "bracket", "--algebra", "sl2", "e", "f")
    assert code == 0 and out.strip() == "[e, f] = h"
    code, doc = run_json(capsys, "bracket", "--algebra", "sl2", "e", "f")
    assert doc["data"]["result"] == "h"


def test_bracket_with_explicit_casimir(capsys):
    code, doc = run_json(capsys, "bracket",
                         "--casimir", "1/2*h^2 + 2*e*f",
                         "--vars", "e,f,h", "e", "f")
    assert code == 0 and doc["data"]["result"] == "h"


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "--algebra", "sl2", "e", "w + 1")
    assert code == 2
    assert "offset" in err
    code, _, err = run(capsys, "root", "--k", "2", "x +")
    assert code == 2


def test_wrong_arity_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "--algebra", "sl2", "e")
    assert code == 2 and "usage error" in err


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2",
                       "--identity", "filippov", "--trials", "8")
    assert code == 0 and "PASS" in out
    code, doc = run_json(capsys, "verify", "--algebra", "malcev-splittable",
                         "--identity", "filippov", "--trials", "20")
    assert code == 1
    assert doc["ok"] is False
    assert doc["data"]["failure_count"] > 0
    code, out, _ = run(capsys, "verify", "--algebra", "malcev-splittable",
                       "--identity", "filippov", "--trials", "20")
    assert code == 1 and "FAIL" in out  # same verdict in text mode


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_checks_exits_2(capsys, trials):
    # leibniz has no generator phase, so these runs would rest on 0 checks
    code, out, err = run(capsys, "verify", "--algebra", "sl2",
                         "--identity", "leibniz", "--trials", trials)
    assert code == 2 and "PASS" not in out and "usage error" in err


def test_verify_zero_trials_keeps_generator_phase(capsys):
    code, doc = run_json(capsys, "verify", "--algebra", "sl2",
                         "--identity", "skew", "--trials", "0")
    assert code == 0 and doc["data"]["trials"] > 0


def test_center_negative_degree_exits_2(capsys):
    code, out, err = run(capsys, "center", "--algebra", "sl2", "--degree", "-1")
    assert code == 2 and out == "" and "--degree" in err


@pytest.mark.parametrize("args", [
    ("verify", "--casimir", "x^2", "--identity", "skew"),
    ("verify", "--casimir", "x^2", "--identity", "leibniz"),
    ("center", "--casimir", "x^2", "--degree", "2"),
    ("bracket", "--casimir", "x^2", "x"),
    ("quotient", "reduce", "--casimir", "x^2", "--lambda", "1", "x"),
])
def test_one_variable_casimir_exits_2(capsys, args):
    # a one-variable Casimir would give a 0-ary bracket
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert "Jacobian bracket over (x)" in err
    assert "needs at least two variables" in err


def test_verify_malcev_passes_where_filippov_fails(capsys):
    code, _, _ = run(capsys, "verify", "--algebra", "malcev-splittable",
                     "--identity", "malcev", "--trials", "8")
    assert code == 0


def test_quotient_commands(capsys):
    code, doc = run_json(capsys, "quotient", "reduce", "--algebra", "sl2",
                         "--lambda", "2", "h^2 + 4*e*f")
    assert code == 0 and doc["data"]["result"] == "4"
    code, doc = run_json(capsys, "quotient", "grade", "--algebra", "sl2",
                         "--lambda", "2", "e*f + h")
    assert [c["residue"] for c in doc["data"]["classes"]] == [0, 1]
    code, doc = run_json(capsys, "quotient", "lift", "--algebra", "sl2",
                         "--lambda", "1", "e^2*h + 3*e")
    assert code == 0 and doc["data"]["degree"] == 3
    code, _, err = run(capsys, "quotient", "reduce", "--algebra", "sl2",
                       "--lambda", "0", "h")
    assert code == 2


def test_root_commands(capsys):
    code, doc = run_json(capsys, "root", "--k", "2", "x^2 + 2*x*y + y^2")
    assert code == 0 and doc["data"]["root"] == "x + y"
    code, doc = run_json(capsys, "root", "--k", "2", "x^2 + y^2")
    assert code == 0 and doc["data"]["found"] is False
    code, doc = run_json(capsys, "closed", "x^2 + y^2")
    assert doc["data"]["closed"] is True
    code, doc = run_json(capsys, "minroot", "x^4 + 2*x^2*y^2 + y^4")
    assert doc["data"]["k"] == 2 and doc["data"]["root"] == "x^2 + y^2"


# No variable has a pure top power, and C(1, t) vanishes at t = 0, 1, 2, 3,
# so kth_root has to shear by a grid point past the all-ones one.
NO_PURE_POWER = "x*y*(y-x)*(y-2*x)*(y-3*x)*(x-2*y)*(x-3*y)"


def test_root_family_decides_without_pure_power(capsys):
    code, doc = run_json(capsys, "closed", NO_PURE_POWER)
    assert code == 0 and doc["data"]["closed"] is True
    code, doc = run_json(capsys, "minroot", NO_PURE_POWER)
    assert code == 0 and doc["data"]["was_closed"] is True
    square = f"({NO_PURE_POWER})^2"
    code, doc = run_json(capsys, "root", "--k", "2", square)
    assert code == 0 and doc["data"]["found"] is True
    ctx = context("x", "y")
    root = parse_polynomial(doc["data"]["root"], ctx)
    assert Fraction(doc["data"]["alpha"]) * root ** 2 == parse_polynomial(square, ctx)
    code, doc = run_json(capsys, "minroot", square)
    assert code == 0 and doc["data"]["k"] == 2


def test_power_term_bound_exits_3(capsys):
    code, out, err = run(capsys, "root", "--k", "2", "(x+y+z+w)^400")
    assert code == 3 and out == "" and "budget exhausted" in err
    # 2,000 terms pass the term bound, but their coefficients run to
    # about 50,000 bits: refused at once instead of running for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "root", "--k", "2", "(9999999*x+7777777/3*y)^1999")
    assert code == 3 and out == "" and "coefficient bits" in err
    assert time.perf_counter() - start < 1
    # one term stays one term, however large the exponent
    code, doc = run_json(capsys, "bracket", "--casimir", "x^100000",
                         "--vars", "x,y", "y")
    assert code == 0 and doc["data"]["result"] == "-100000*x^99999"


def test_product_bound_exits_3(capsys):
    # each factor passes both power bounds, but their product (7,626
    # terms from 3.8M term pairs) took seconds: refused before it is formed
    start = time.perf_counter()
    code, out, err = run(capsys, "root", "--k", "2", "(x+y+z)^61*(x+y+z)^61")
    assert code == 3 and out == ""
    assert "product at offset 10" in err and "coefficient bits" in err
    assert time.perf_counter() - start < 1


def test_center_huge_degree_exits_3(capsys):
    # C(7 + 10, 7) = 19,448 unknowns: refused before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, "center", "--algebra", "malcev-canonical",
                         "--degree", "10")
    assert code == 3 and out == "" and "19448 unknowns" in err
    assert time.perf_counter() - start < 1


def test_center_commands(capsys):
    code, doc = run_json(capsys, "center", "--algebra", "sl2", "--degree", "2")
    assert code == 0 and doc["data"]["dimension"] == 2
    code, doc = run_json(capsys, "center", "--algebra", "sl2", "--degree", "3",
                         "--quotient", "--lambda", "1")
    assert doc["data"]["dimension"] == 1
    code, doc = run_json(capsys, "center", "--algebra", "sl2",
                         "--element", "e*f + 1/4*h^2")
    assert doc["data"]["central"] is True
    code, _, err = run(capsys, "center", "--algebra", "sl2", "--quotient")
    assert code == 2  # --quotient without --lambda


@pytest.mark.parametrize("args, flag", [
    (("--lambda", "1"), "--lambda"),
    (("--lambda", "1", "--degree", "2"), "--lambda"),
    (("--element", "h", "--degree", "2"), "--degree"),
    (("--element", "h", "--degree", "2", "--quotient", "--lambda", "1"), "--degree"),
])
def test_center_refuses_flags_it_would_ignore(capsys, args, flag):
    # --lambda only shifts a quotient, and --degree only bounds a probe
    code, out, err = run(capsys, "center", "--algebra", "sl2", *args)
    assert code == 2 and out == "" and flag in err


def test_saturate_exit_codes(capsys):
    code, doc = run_json(capsys, "saturate", "--algebra", "sl2",
                         "--lambda", "1", "--seed", "e",
                         "--expect", "whole-ring")
    assert code == 0 and doc["data"]["verdict"] == "whole-ring"
    # verdict mismatch against --expect is a failure
    code, doc = run_json(capsys, "saturate",
                         "--casimir", "x^2 + 2*x*y + 2*x*z + y^2 + 2*y*z + z^2",
                         "--lambda", "1", "--seed", "x + y + z - 1",
                         "--expect", "whole-ring")
    assert code == 1 and doc["data"]["matched"] is False
    # exhausting the reduction budget is its own exit code
    code, doc = run_json(capsys, "saturate", "--algebra", "sl2",
                         "--lambda", "1", "--seed", "e", "--budget", "2")
    assert code == 3 and doc["data"]["verdict"] == "budget-exhausted"


def test_saturate_multiple_seeds(capsys):
    code, doc = run_json(capsys, "saturate", "--algebra", "quadric",
                         "--lambda", "1", "--seed", "x1", "--seed", "x2")
    assert code == 0 and len(doc["data"]["seeds"]) == 2


def test_casimir_suite(capsys):
    code, doc = run_json(capsys, "casimir-suite")
    assert code == 0 and doc["data"]["failed"] == 0


def test_no_color_when_not_a_tty(capsys):
    _, out, _ = run(capsys, "verify", "--algebra", "sl2",
                    "--identity", "skew", "--trials", "5")
    assert "\x1b[" not in out


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bracket"])  # argparse rejects the missing expressions
    assert info.value.code == 2
