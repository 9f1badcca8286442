"""Expression parser, evaluator, element files, and the command line driver."""
import ast
import hashlib
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import package_caches
from oracles import ZERO_EXP, decode
from so41inv.elements import pair_sort_key
from so41inv.errors import EngineError, EvalError, ExprTypeError, ParseError
from so41inv.evaluator import evaluate
from so41inv.matrix_oracle import Gen
from so41inv.parser import BinOp, Call, Num, Sym, describe, parse
from so41inv.serialization import dump_element, dumps_element, load_element, loads_element
from so41inv.sym_ext import SEElement, se_gen
from so41inv import cli, serialization, tensor_algebra
from so41inv.clifford import PForm
from so41inv.tensor_algebra import TensorAlgebra, convention_pform


# -- parser ------------------------------------------------------------------------

def test_parse_precedence_product_over_sum():
    node = parse("a1 + b * c")
    assert isinstance(node, BinOp) and node.op == "+"
    assert isinstance(node.right, BinOp) and node.right.op == "*"


def test_parse_wedge_binds_tighter_than_star():
    node = parse("2/3 * E3 ^ F3")
    assert isinstance(node, BinOp) and node.op == "*"
    assert node.left == Num(Fraction(2, 3))
    assert node.right == BinOp("^", Sym("E3"), Sym("F3"))


def test_parse_ot_binds_tighter_than_star():
    node = parse("E1 ot E3 * F1 ot F3")
    assert isinstance(node, BinOp) and node.op == "*"
    assert node.left.op == "ot" and node.right.op == "ot"


def test_parse_call_with_two_args():
    node = parse("ad(E1, D)")
    assert node == Call("ad", (Sym("E1"), Sym("D")))


def test_call_arity_is_enforced():
    with pytest.raises(ParseError):
        parse("ad(E1)")
    with pytest.raises(ParseError):
        parse("sigma(E1, F1)")


def test_parse_fraction_literals():
    assert parse("3/4") == Num(Fraction(3, 4))
    assert parse("7") == Num(Fraction(7))


@pytest.mark.parametrize("src", [
    "a1 + a2 - 2 * b",
    "sigma(E1 * F1) - 1/2 * rho(D)",
    "-E3 ^ F3",
    "-(a1 * a2)",
    "E3 ^ E4 ^ F3",
    "2/3 * tau(E3 ^ F3) + ad(H1, D)",
    "(a1 + a2) * (b - c)",
    "E1 ot 1 + 1 ot E3",
])
def test_describe_round_trips(src):
    node = parse(src)
    text = describe(node)
    assert parse(text) == node


def test_wedge_of_k_generator_is_a_type_error():
    with pytest.raises(ExprTypeError):
        parse("H1 ^ E3")
    with pytest.raises(ExprTypeError):
        parse("E3 ^ (E1 + F4)")


def test_wedge_of_scalar_multiple_is_fine():
    # scalars may scale a wedge factor without changing its flavor
    node = parse("(2 * E3) ^ F3")
    assert isinstance(node, BinOp) and node.op == "^"


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("a1 + $")
    assert exc.value.position == 5
    with pytest.raises(ParseError) as exc:
        parse("a1 + ")
    assert "end of input" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("a1 b")
    assert exc.value.position == 3


def test_a_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("a1 + 3 / 00")
    assert exc.value.position == 5 and "zero denominator" in str(exc.value)
    assert parse("0/7") == Num(Fraction(0))


def test_a_number_may_have_any_whitespace_around_its_slash():
    # the tokenizer reads a tab or a newline around '/' as part of the
    # number, so the value and the zero-denominator check must drop them too
    assert parse("3\t/4") == parse("3 /\n4") == parse("3/4") == Num(Fraction(3, 4))
    with pytest.raises(ParseError) as exc:
        parse("a1 + 3\t/ 00")
    assert (str(exc.value), exc.value.position) == (
        "zero denominator in '3\\t/ 00' (at position 5)", 5)


@pytest.mark.parametrize("src", ["h * h", "h * c", "c * c * D"])
def test_the_text_of_a_long_element_parses_back(cat, src):
    # 508, 1,074 and 2,689 terms: the sum is folded in a loop, not recursed
    x = evaluate(src, algebra=cat.algebra)
    assert len(x) > 500
    assert evaluate(str(x), algebra=cat.algebra) == x


@pytest.mark.parametrize("src, position", [
    ("(" * 300 + "H1" + ")" * 300, 100),
    ("-" * 300 + "H1", 100),
    ("sigma(" * 300 + "H1" + ")" * 300, 600),
    ("E3" + " ^ E4" * 300, 503),
], ids=["parentheses", "minus", "calls", "wedges"])
def test_deep_nesting_is_a_parse_error(capsys, src, position):
    assert run_cli(capsys, "eval", "--", src) == (2, "", (
        f"error: expression nests deeper than 100 levels (at position {position})\n"))


def test_one_hundred_levels_of_nesting_parse():
    assert evaluate("(" * 100 + "H1" + ")" * 100, ambient="se") == se_gen(Gen.H1)
    assert evaluate("-" * 100 + "H1", ambient="se") == se_gen(Gen.H1)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(a1 + a2")
    with pytest.raises(ParseError):
        parse("a1)")


@pytest.mark.parametrize("src, message, position", [
    ("$", "unexpected character '$'", 0),
    ("   $", "unexpected character '$'", 3),
    ("a1 + @", "unexpected character '@'", 5),
    ("a1 * é", "unexpected character 'é'", 5),
    ("é", "unexpected character 'é'", 0),
    ("a1 +\n\t$", "unexpected character '$'", 6),
    ("1/", "unexpected character '/'", 1),
    ("a1 b $", "unexpected character '$'", 5),  # the whole text is read first
    ("ad E1", "expected '('", 3),
    ("sigma", "expected '('", 5),
    ("ad(E1, D", "expected ')'", 8),
    ("(a1 + a2", "expected ')'", 8),
    ("a1 + ", "expected a value, found 'end of input'", 5),
    ("sigma(", "expected a value, found 'end of input'", 6),
    ("H1 ^", "expected a value, found 'end of input'", 4),
    ("a1 + )", "expected a value, found ')'", 5),
    ("()", "expected a value, found ')'", 1),
    ("a1 b", "unexpected trailing input 'b'", 3),
    ("a1)", "unexpected trailing input ')'", 2),
    ("ad(E1, D) ,", "unexpected trailing input ','", 10),
    ("3 / 00", "zero denominator in '3 / 00'", 0),
    ("a1 + 3 / 00", "zero denominator in '3 / 00'", 5),
    ("1/0", "zero denominator in '1/0'", 0),
    ("ot", "'ot' is an operator, not a value", 0),
    ("E1 ot ot", "'ot' is an operator, not a value", 6),
    ("ad(E1)", "ad takes 2 argument(s), got 1", 0),
    ("a1 + ad(E1, D, F1)", "ad takes 2 argument(s), got 3", 5),
    ("sigma(E1, F1)", "sigma takes 1 argument(s), got 2", 0),
    ("tau(E3, F3)", "tau takes 1 argument(s), got 2", 0),
    ("rho(D, D)", "rho takes 1 argument(s), got 2", 0),
    ("", "expected a value, found 'end of input'", 0),
    ("   ", "expected a value, found 'end of input'", 3),
    (" \t\n", "expected a value, found 'end of input'", 3),
])
def test_every_parse_error_keeps_its_text_and_position(src, message, position):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (str(exc.value), exc.value.position) == (
        f"{message} (at position {position})", position)


# -- evaluator ---------------------------------------------------------------------

def test_eval_ad_kills_invariants(cat):
    for name in ("D", "i", "c", "Dk"):
        out = evaluate(f"ad(E1, {name})", ambient="uc", algebra=cat.algebra)
        assert out.is_zero(), name


def test_eval_commutator_of_i_with_dirac(cat):
    lhs = evaluate("rho(i) * D - D * rho(i)", ambient="uc", algebra=cat.algebra)
    rhs = evaluate("2 * rho(j)", ambient="uc", algebra=cat.algebra)
    assert lhs == rhs


def test_eval_symmetrization(cat):
    from so41inv.matrix_oracle import Gen
    from so41inv.uea import u_gen

    out = evaluate("sigma(E1 * F1)", ambient="uc", algebra=cat.algebra)
    alg = cat.algebra
    e1f1 = u_gen(Gen.E1) * u_gen(Gen.F1)
    h = u_gen(Gen.H1) + u_gen(Gen.H2)
    assert out == alg.from_u(e1f1 - Fraction(1, 2) * h)


def test_eval_se_identity(st):
    one = evaluate("1", ambient="se")
    assert one == st.t_elements["1"]


def test_eval_se_tensor_grammar_builds_dirac(st):
    built = evaluate(
        "E3 ot F3 + E4 ot F4 + F3 ot E3 + F4 ot E4", ambient="se")
    assert built == st.named["D"]


def test_eval_scalar_lifts():
    out = evaluate("2 + 3", ambient="uc")
    assert out == evaluate("5", ambient="uc")
    assert not evaluate("0", ambient="se").terms


def test_eval_unknown_name():
    with pytest.raises(EvalError):
        evaluate("nosuch", ambient="uc")
    with pytest.raises(EvalError):
        evaluate("Dd", ambient="uc")  # a t-basis label, not a catalog name


def test_eval_se_rejects_rho():
    with pytest.raises(EvalError):
        evaluate("rho(i)", ambient="se")


def test_eval_ot_in_wrong_place():
    with pytest.raises(EvalError):
        evaluate("ad(H1, E1 ot E3 ot F3)", ambient="uc")


def test_eval_ad_first_arg_must_be_lie():
    with pytest.raises(EvalError):
        evaluate("ad(2, D)", ambient="uc")


def test_eval_wedge_type_error_propagates():
    with pytest.raises(ExprTypeError):
        evaluate("H1 ^ E3", ambient="se")


@pytest.mark.parametrize("argv, noun", [
    (["x"], "the tensor algebra U(g) ot C(p)"),
    (["--ambient", "se", "x"], "the graded algebra S(g) ot Lambda(p)"),
    (["x ot 1"], "the enveloping algebra"),
    (["sigma(x)"], "the symmetric algebra"),
    (["tau(x)"], "the exterior algebra on p"),
    (["1 ot x"], "the Clifford algebra"),
    (["ad(x, D)"], "the Lie algebra"),
], ids=["uc", "se", "u", "s", "ext", "c", "lie"])
def test_an_unknown_name_is_refused_in_the_noun_of_its_realm(capsys, argv, noun):
    # each call and slot reads its argument in one realm, named in the error
    assert run_cli(capsys, "eval", *argv) == (2, "", f"error: unknown name 'x' in {noun}\n")


@pytest.mark.parametrize("expr, result", [
    ("ad(ad(E1, F1), d)", (0, "0\n", "")),
    ("ad(ad(E3, F3), E3)", (0, "2 * (E3) ot (1)\n", "")),
    ("ad(E3, d)", (2, "", "error: evaluation failed: element has p-components: E3\n")),
], ids=["bracket-in-k", "bracket-of-p", "p-on-uc"])
def test_ad_is_the_bracket_in_the_lie_algebra_and_only_k_acts_on_uc(capsys, expr, result):
    assert run_cli(capsys, "eval", expr) == result


def test_eval_tau_matches_clifford_product_minus_pairing(cat):
    # tau(x ^ y) = xy - <x, y> for p-vectors, so tau(E3 ^ F3) differs from
    # the Clifford product by the gram pairing of E3 with F3
    from so41inv.clifford import P_INDEX
    from so41inv.matrix_oracle import Gen

    tau = evaluate("tau(E3 ^ F3)", ambient="uc", algebra=cat.algebra)
    prod = evaluate("(1 ot E3) * (1 ot F3)", ambient="uc", algebra=cat.algebra)
    pairing = cat.algebra.pform.phi(P_INDEX[Gen.E3], P_INDEX[Gen.F3])
    assert prod - tau == evaluate(str(pairing), ambient="uc", algebra=cat.algebra)


# -- element files -------------------------------------------------------------------

def test_caret_with_a_number_is_a_power():
    # canonical text prints powers as H1^2, so they must read back
    assert evaluate("(H1^2 * E3) ot (E3 ^ F3)", ambient="se") == \
        evaluate("H1 * H1 * E3 * (E3 ^ F3)", ambient="se")
    assert evaluate("(E3 + F3)^0", ambient="se") == evaluate("1", ambient="se")
    with pytest.raises(EvalError):
        evaluate("H1^1/2", ambient="se")
    with pytest.raises(ExprTypeError):
        parse("H1 ^ E3")


def test_round_trip_every_uc_catalog_element(cat):
    # canonical text, then the element file
    for name, el in cat.elements.items():
        assert evaluate(str(el), algebra=cat.algebra) == el, name
    for name, el in cat.elements.items():
        text = dumps_element(el)
        back = loads_element(text)
        assert back == el, name
        assert dumps_element(back) == text, name


def test_round_trip_every_se_catalog_element(st):
    for name, el in st.named.items():
        assert evaluate(str(el), ambient="se") == el, name
    for name, el in st.named.items():
        text = dumps_element(el)
        back = loads_element(text)
        assert back == el, name


def test_dump_is_deterministic(cat, st):
    # each row comes from a per-key table; a dump made with the table empty
    # and one made with it full print the same bytes, for every named element
    elements = [*cat.elements.values(), *st.named.values()]
    assert len(elements) == 13 + 12
    cold = []
    for el in elements:
        serialization._row_of.cache_clear()
        cold.append(dumps_element(el))
    for el in elements:
        dumps_element(el)
    keys = {key for el in elements for key in el.num}
    assert serialization._row_of.cache_info().currsize == len(keys)
    assert [dumps_element(el) for el in elements] == cold


def test_file_round_trip(tmp_path, cat):
    path = tmp_path / "dk.element"
    dump_element(cat.elements["Dk"], str(path))
    assert load_element(str(path)) == cat.elements["Dk"]


def test_a_dump_over_a_longer_file_leaves_only_its_own_bytes(tmp_path, cat):
    # the second write truncates the file before writing its own bytes
    path = str(tmp_path / "x.element")
    long, short = (dumps_element(cat.elements[name]).encode() for name in ("h", "Dk"))
    assert len(long) > len(short)
    dump_element(cat.elements["h"], path)
    dump_element(cat.elements["Dk"], path)
    with open(path, "rb") as fh:
        assert fh.read() == short


def _reader_cold():
    serialization._coeff_of.cache_clear()
    serialization._key_of.cache_clear()


# the last two spellings pass int's digit limit, the second on both sides of
# the slash with different lengths: Fraction names the numerator's count
@pytest.mark.parametrize("spelling", ["+3", "-0", "6/8", "1.5", "1e3", "3 / 4", "1/0",
                                      "7" * 4301, "7" * 4400 + "/" + "3" * 4500])
def test_a_term_coefficient_reads_as_a_fraction_reads_it(cat, spelling):
    # each spelling loads to the element a Fraction coefficient gives, or
    # fails with the message of Fraction's error on the line of the term,
    # on its first read and again on a second
    h = cat.elements["h"]
    key = decode(sorted(h.num, key=pair_sort_key)[1])
    lines = dumps_element(h).splitlines()
    lines[7] = spelling + lines[7][lines[7].index(" | "):]
    text = "\n".join(lines) + "\n"
    _reader_cold()
    try:
        coeff = Fraction(spelling)
    except (ValueError, ZeroDivisionError) as exc:
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                loads_element(text)
            assert str(err.value) == f"bad term field: {exc} (at position 8)"
        return
    terms = h.terms
    terms[key] = coeff
    want = type(h)(terms, h.algebra)
    assert loads_element(text) == want
    assert loads_element(text) == want


def test_tampered_magic_rejected(cat):
    text = dumps_element(cat.elements["b"])
    bad = text.replace("so41inv-element v1", "so41inv-element v9")
    with pytest.raises(ParseError):
        loads_element(bad)


def test_tampered_order_hash_rejected(cat):
    text = dumps_element(cat.elements["b"])
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("order-hash:"))
    lines[idx] = "order-hash: 0000000000000000"
    with pytest.raises(ParseError):
        loads_element("\n".join(lines) + "\n")


def test_an_element_of_a_form_no_convention_names_is_not_written():
    # its label, trace*2/3, is no convention label, so no reader could build
    # its algebra back
    alg = TensorAlgebra(PForm.from_trace_form(sign=-1, scale=Fraction(2, 3)))
    assert alg.pform.label == "trace*2/3"
    with pytest.raises(ValueError, match="unknown convention label: 'gram=trace\\*2/3 sign=-1'"):
        dumps_element(alg.c_gen(Gen.E3) * alg.c_gen(Gen.F3))


def test_an_element_of_a_form_under_another_forms_label_is_not_written():
    # twice the quarter trace form, labelled trace/4: its file would read back
    # into the convention algebra as another element, with no error
    quarter = convention_pform("gram=trace/4 sign=-1")
    double = PForm(gram=tuple(tuple(2 * v for v in row) for row in quarter.gram), sign=-1,
                   label="trace/4")
    alg = TensorAlgebra(double)
    with pytest.raises(ValueError, match="'gram=trace/4 sign=-1' labels a form that is not"):
        dumps_element(alg.c_gen(Gen.E3) * alg.c_gen(Gen.F3))
    # the convention's own form is written from any algebra built on it
    fresh = TensorAlgebra(quarter)
    y = fresh.c_gen(Gen.E3) * fresh.c_gen(Gen.F3)
    back = loads_element(dumps_element(y))
    assert str(back) == str(y) and dumps_element(back) == dumps_element(y)


def test_tampered_term_count_rejected(cat):
    text = dumps_element(cat.elements["b"])
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("terms:"))
    lines[idx] = "terms: 99"
    with pytest.raises(ParseError):
        loads_element("\n".join(lines) + "\n")


def test_bad_coefficient_rejected(cat):
    text = dumps_element(cat.elements["b"])
    bad = text.replace(" | ", " |bogus| ", 1)
    with pytest.raises(ParseError):
        loads_element(bad)


def bad_element_files(text: str) -> dict[str, tuple[str, str]]:
    """Broken copies of an element file, each with the ParseError text it
    must raise: a zero denominator, a negative term count, and term lines
    past the count (one more line, or a count lowered to 0)."""
    lines = text.splitlines()
    count = next(i for i, ln in enumerate(lines) if ln.startswith("terms:"))

    def edit(idx, line):
        return "\n".join(lines[:idx] + [line] + lines[idx + 1:]) + "\n"

    return {
        "zero": (edit(count + 1, "1/0 |" + lines[count + 1].split("|", 1)[1]),
                 f"position {count + 2}"),
        "negative": (edit(count, "terms: -3"), "negative term count -3"),
        "one-extra": (text + lines[-1] + "\n", "has more lines"),
        "count-zero": (edit(count, "terms: 0"), "expected 0 terms, file has more lines"),
    }


@pytest.mark.parametrize("kind", ["zero", "negative", "one-extra", "count-zero"])
def test_a_bad_term_block_is_a_parse_error(cat, kind):
    body, message = bad_element_files(dumps_element(cat.elements["h"]))[kind]
    with pytest.raises(ParseError, match=message):
        loads_element(body)


@pytest.mark.parametrize("field, lineno", [("sign", 3), ("terms", 6)])
def test_a_bad_header_number_names_its_own_line(cat, field, lineno):
    lines = dumps_element(cat.elements["h"]).splitlines()
    assert lines[lineno - 1].startswith(f"{field}:")
    lines[lineno - 1] = f"{field}: x"
    with pytest.raises(ParseError, match=rf"bad header number: .*'x' \(at position {lineno}\)$") \
            as exc:
        loads_element("\n".join(lines) + "\n")
    assert exc.value.position == lineno


TEN_EXPONENTS = "exponent field needs ten nonnegative integers"


@pytest.mark.parametrize("field, value, message", [
    (2, "01x0", "bad mask field '01x0'"),
    (2, "010", "bad mask field '010'"),
    (2, "01010", "bad mask field '01010'"),
    (1, "0 " * 9, TEN_EXPONENTS),
    (1, "0 " * 11, TEN_EXPONENTS),
    (1, "-1" + " 0" * 9, TEN_EXPONENTS),
    (1, "a" + " 0" * 9, "bad term field: invalid literal for int() with base 10: 'a'"),
], ids=["mask-x", "mask-3", "mask-5", "exp-9", "exp-11", "exp-negative", "exp-letter"])
def test_a_bad_term_field_names_the_line_of_its_term(cat, field, value, message):
    # the same bad field, read cold at the last line and then again at the
    # one before and at the last, names each time the line it is on
    lines = dumps_element(cat.elements["h"]).splitlines()
    _reader_cold()
    for lineno in (len(lines), len(lines) - 1, len(lines)):
        bad = lines[:]
        parts = bad[lineno - 1].split(" | ")
        parts[field] = value
        bad[lineno - 1] = " | ".join(parts)
        with pytest.raises(ParseError) as exc:
            loads_element("\n".join(bad) + "\n")
        assert str(exc.value) == f"{message} (at position {lineno})"
        assert exc.value.position == lineno


def test_a_term_field_is_read_without_its_surrounding_spaces(cat):
    # each field of a term line is stripped, so a trailing space after the
    # mask is no error
    el = cat.elements["h"]
    text = dumps_element(el)
    assert loads_element(text.replace("\n", " \n")) == el


def test_cli_load_reports_a_bad_file_as_an_error(capsys, tmp_path, cat):
    for kind, (body, message) in bad_element_files(dumps_element(cat.elements["h"])).items():
        path = tmp_path / f"{kind}.element"
        path.write_text(body)
        code, out, err = run_cli(capsys, "load", str(path))
        assert (code, out) == (2, ""), kind
        assert err.startswith("error: ") and message in err, kind


def test_a_file_that_is_not_utf8_is_a_parse_error_at_line_one(capsys, tmp_path, cat):
    path = tmp_path / "bytes.element"
    path.write_bytes(b"\xff" + dumps_element(cat.elements["D"]).encode())
    with pytest.raises(ParseError) as exc:
        load_element(str(path))
    assert exc.value.position == 1
    assert run_cli(capsys, "load", str(path)) == (2, "", (
        "error: not an element file (byte 0 is not UTF-8) (at position 1)\n"))


def test_se_element_round_trip():
    from so41inv.matrix_oracle import Gen
    el = se_gen(Gen.E3) * se_gen(Gen.F3) + Fraction(5, 3) * se_gen(Gen.H1)
    assert loads_element(dumps_element(el)) == el


# -- command line --------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_verify_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "table")
    assert code == 0
    assert "MATRIX" in out and "TABLE" in out
    assert out.strip().splitlines()[-1].startswith("VERIFY table")
    assert out.strip().splitlines()[-1].endswith("PASS")


def test_cli_verify_table_names_a_tampered_entry(capsys, monkeypatch, cold_caches):
    from so41inv import lie_core
    from so41inv.matrix_oracle import Gen

    # [E1, F1] = H1 + H2; drop the H2 term
    monkeypatch.setattr(lie_core, "_T", MappingProxyType({**lie_core._T,
                                                          (Gen.E1, Gen.F1): ((Gen.H1, 1),)}))
    mismatches = lie_core.certify_against_oracle()
    assert len(mismatches) == 1 and mismatches[0].startswith("[E1,F1]: ")
    code, out, _ = run_cli(capsys, "verify", "table")
    assert code == 1
    assert [ln for ln in out.splitlines() if ln.endswith("FAIL")] == [
        "TABLE [E1,F1] FAIL", "VERIFY table checks=55 failures=1 FAIL"]
    assert "TABLE SUMMARY 44/45" in out


def test_cli_verify_relations_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    assert "CONVENTION sign=-1 gram=trace/4 dk_reading=paired" in out
    for name in ("b", "d", "e", "j", "f", "g", "h", "c"):
        assert f"RELATION {name} sign=-1 residual_terms=0 PASS" in out


def test_cli_verify_relations_rejected_sign(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations", "--sign", "+1")
    assert code == 1
    assert "RELATION b sign=+1 residual_terms=8 FAIL" in out
    assert "FINDING relation=h literal_residual_terms=44 " \
           "regrouped_residual_terms=28" in out
    assert out.strip().splitlines()[-1].endswith("FAIL")


def test_cli_verify_chain_and_rank16(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain")
    assert code == 0 and "VERIFY chain" in out
    code, out, _ = run_cli(capsys, "verify", "rank16", "--max-degree", "4")
    assert code == 0
    assert "rank=22" in out or "rank" in out


@pytest.mark.parametrize("suite", ["dims", "independence", "rank16", "all"])
@pytest.mark.parametrize("cap", ["-1", "-2"])
def test_cli_rejects_a_negative_degree_cap(capsys, suite, cap):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", suite, "--max-degree", cap])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --max-degree: must be nonnegative, got {cap}" in out.err


def test_cli_rejects_an_empty_emit_basis_dir(capsys):
    # an empty DIR would run the suite and write no file
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "dims", "--max-degree", "2", "--emit-basis", ""])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --emit-basis: must name a directory, got ''" in out.err


def test_cli_verify_dims_exact_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "dims", "--max-degree", "3",
                           "--method", "exact")
    assert code == 0
    assert "DIM degree=3" in out
    assert "VERIFY dims" in out


def test_cli_import_leaves_numpy_unloaded():
    # numpy is a test-only dependency: the package runs without it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, so41inv.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


# Imports the command line in a fresh process, runs it on the arguments, if
# any, and prints the modules it loaded that the interpreter had not.
FRESH_IMPORTS = """
import contextlib, io, sys
before = set(sys.modules)
from so41inv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def fresh_imports(*argv: str) -> set[str]:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", FRESH_IMPORTS, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_importing_the_command_line_loads_only_its_front_end():
    loaded = fresh_imports()
    assert {m for m in loaded if m.startswith("so41inv")} == {
        "so41inv", "so41inv.cli", "so41inv.errors"}
    assert not loaded & {"dataclasses", "inspect", "hashlib", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, unloaded", [
    (["verify", "table"], {"so41inv.tensor_algebra", "so41inv.clifford", "so41inv.uea",
                           "so41inv.sym_ext", "so41inv.invariants", "so41inv.parser",
                           "so41inv.serialization"}),
    (["verify", "relations"], {"so41inv.parser", "so41inv.evaluator", "so41inv.invariants",
                               "so41inv.serialization", "dataclasses", "hashlib"}),
    (["verify", "dims", "--max-degree", "3", "--emit-basis", "basis"],
     {"so41inv.tensor_algebra", "so41inv.uea"}),
    (["dump", "b", "--ambient", "se", "--out", "b.element"],
     {"so41inv.tensor_algebra", "so41inv.uea"}),
], ids=["table", "relations", "dims-emit", "dump-se"])
def test_a_cold_command_loads_only_the_modules_it_runs(argv, unloaded, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    loaded = fresh_imports(*argv)
    assert "so41inv.lie_core" in loaded
    assert not loaded & unloaded


def test_the_command_line_reads_each_function_when_it_runs(capsys, monkeypatch, cat):
    # a function rebound in its module after the command line was imported
    # (as the benchmark tracer does) is the one a command calls
    calls = []
    check = tensor_algebra.generator_chain_check

    def counted(catalog):
        calls.append(catalog)
        return check(catalog)

    monkeypatch.setattr(tensor_algebra, "generator_chain_check", counted)
    assert run_cli(capsys, "verify", "chain")[0] == 0
    assert calls == [cat]


# the public names of the package, the contract that __all__ must keep
PUBLIC_NAMES = {
    "Catalog", "CliffordAlgebra", "DomainError", "EngineError", "EvalError", "ExprTypeError",
    "ExtElement", "Gen", "InvarianceError", "K_GENS", "LieElement", "NotStableError",
    "P_GENS", "PForm", "ParseError", "PrimeDisagreement", "SEElement", "SElement",
    "SolveError", "SpanError", "TensorAlgebra", "UCElement", "UElement", "accepted_catalog",
    "adjudicate_convention", "bracket", "build_st_catalog", "catalog_for_sign",
    "certify_against_oracle", "default_cartan_split", "dump_element", "dumps_element",
    "evaluate", "ext_gen", "ext_wedge", "generator_chain_check", "independence_check",
    "invariant_dimension", "jacobi_check", "lie_gen", "load_element", "loads_element",
    "parse", "predicted_dimension", "s_gen", "se_gen", "se_wedge", "symmetrize",
    "truncated_rank16_check", "u_gen", "verify_relations",
}

# Checks the package's public names in a fresh process, where no module of
# the package is loaded until a name is read.
PUBLIC_SURFACE = """
import importlib, sys
import so41inv
assert sorted(m for m in sys.modules if m.startswith("so41inv")) == ["so41inv"]
assert set(so41inv.__all__) <= set(dir(so41inv))
star = {}
exec("from so41inv import *", star)
assert set(so41inv.__all__) <= set(star), set(so41inv.__all__) - set(star)
for name in so41inv.__all__:
    module = importlib.import_module(f"so41inv.{so41inv._MODULE_OF[name]}")
    assert star[name] is getattr(so41inv, name) is getattr(module, name), name
for name in ("nonexistent", "record", "dataclass", "import_module"):
    try:
        getattr(so41inv, name)
    except AttributeError:
        continue
    raise AssertionError(name)
print(*so41inv.__all__)
"""


def test_the_lazy_package_binds_every_public_name():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", PUBLIC_SURFACE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    names = run.stdout.split()
    assert names == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 51


def test_the_readme_library_block_runs():
    # the python block under '## Library' in README.md, run as a reader would
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md, ## Library", "exec"), {})


def test_cli_verify_dims_emit_basis(capsys, tmp_path):
    out_dir = tmp_path / "basis"
    code, out, _ = run_cli(capsys, "verify", "dims", "--max-degree", "2",
                           "--method", "exact", "--emit-basis", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["deg0_vec0.element", "deg2_vec0.element",
                     "deg2_vec1.element", "deg2_vec2.element",
                     "deg2_vec3.element"]
    for p in out_dir.iterdir():
        el = load_element(str(p))
        assert el.terms


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "ad(E1, D)")
    assert code == 0
    assert out.strip() == "0"


def test_cli_eval_se(capsys):
    code, out, _ = run_cli(capsys, "eval", "d", "--ambient", "se")
    assert code == 0
    assert out.strip()


def test_cli_eval_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "a1 +")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ["2^100000", "ad(2^100000 * E3, d)"])
def test_eval_of_a_power_too_long_to_print_is_an_error(capsys, expr):
    # 2^100000 has 30,103 digits, past the int-to-text limit of 4,300: as
    # the result, or in the message naming a z outside k
    code, out, err = run_cli(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("a coefficient has more than 4300 digits, too many to print\n")


def test_eval_of_a_literal_too_long_to_read_is_a_parse_error(capsys):
    with pytest.raises(ParseError) as exc:
        parse("E1 + " + "7" * 5000)
    assert exc.value.position == 5
    code, out, err = run_cli(capsys, "eval", "7" * 5000 + " * E1")
    assert (code, out) == (2, "")
    assert err == "error: number has more than 4300 digits (at position 0)\n"


def test_an_element_file_of_a_coefficient_too_long_to_print_is_an_error():
    with pytest.raises(EngineError, match="more than 4300 digits"):
        dumps_element(SEElement({(ZERO_EXP, 0): 10 ** 5000}))


def test_fresh_eval_of_a_zero_denominator_exits_two():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "so41inv.cli", "eval", "1/0"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr


def test_cli_dump_load_round_trip(capsys, tmp_path, cat):
    path = tmp_path / "d.element"
    code, out, _ = run_cli(capsys, "dump", "D", "--out", str(path))
    assert code == 0 and "DUMP D" in out
    assert load_element(str(path)) == cat.elements["D"]
    code, out, _ = run_cli(capsys, "load", str(path))
    assert code == 0
    assert "kind=UCElement" in out and "terms=4" in out


def test_cli_dump_se_named(capsys, tmp_path, st):
    path = tmp_path / "h.element"
    code, out, _ = run_cli(capsys, "dump", "h", "--ambient", "se",
                           "--out", str(path))
    assert code == 0
    assert load_element(str(path)) == st.named["h"]


def test_cli_dump_unknown_name(capsys, tmp_path):
    code, _, err = run_cli(capsys, "dump", "nosuch",
                           "--out", str(tmp_path / "x.element"))
    assert code == 2
    assert "unknown element" in err


@pytest.mark.parametrize("where", ["missing/x.element", "."])
def test_cli_dump_to_an_unwritable_path_fails_as_a_text_open_does(capsys, tmp_path, where):
    path = str(tmp_path / where)
    with pytest.raises(OSError) as exc:
        open(path, "w")
    code, out, err = run_cli(capsys, "dump", "h", "--out", path)
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_cli_load_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "load", str(tmp_path / "missing.element"))
    assert code == 2
    assert "error:" in err


def test_cli_verify_invariance(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariance")
    assert code == 0
    assert out.count("INVARIANT") == 78


def test_cli_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-degree", "4")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("VERIFY all") and last.endswith("PASS")


def test_cli_relations_run_once_per_built_convention(capsys, monkeypatch, cold_caches):
    # a fresh --sign auto process refutes the other conventions by j alone:
    # it builds and checks only the accepted catalog, and verify relations
    # reuses the checks adjudication computed; the refuted conventions build
    # their catalogs and checks when read
    calls, built = [], []
    verify, build = tensor_algebra.verify_relations, tensor_algebra.build_catalog

    def counted_verify(cat):
        calls.append(cat.algebra.pform)
        return verify(cat)

    def counted_build(alg):
        built.append(alg.pform)
        return build(alg)

    monkeypatch.setattr(tensor_algebra, "verify_relations", counted_verify)
    monkeypatch.setattr(tensor_algebra, "build_catalog", counted_build)
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    assert "RELATION c sign=-1 residual_terms=0 PASS" in out
    assert len(calls) == len(built) == 1
    for label in tensor_algebra.CONVENTION_LABELS:
        assert tensor_algebra.convention_algebra(label).catalog.checks, label
    assert len(calls) == len(built) == 4


def test_cold_relations_make_24_rho_calls(capsys, monkeypatch, cold_caches):
    # a fresh --sign auto process forms rho(i), rho(D) and rho(j) for the j
    # refutation of each convention, and the accepted catalog maps all
    # twelve names again: 4 * 3 + 12 calls
    calls = []
    rho = TensorAlgebra.rho

    def counted_rho(alg, x):
        calls.append(alg.pform)
        return rho(alg, x)

    monkeypatch.setattr(TensorAlgebra, "rho", counted_rho)
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    assert len(calls) == 24


def test_cold_relations_report_the_fills_and_hits_of_every_algebra_table(capsys, cold_caches):
    # every per-algebra table is a functools.cache: after a cold verify
    # relations, its misses are the entries filled and its hits the reads
    # that found one; the refuted conventions filled 32 product rows each
    code, _, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    accepted = tensor_algebra.adjudicate_convention().accepted
    alg = tensor_algebra.convention_algebra(accepted)
    assert [tuple(t.cache_info()[:2]) for t in (alg._products, alg._actions)] \
        == [(379, 825), (404, 572)]
    cl = alg.cl
    assert [t.cache_info().misses
            for t in (cl.table, cl.k_table, cl._tau_table, cl._insert_table)] == [127, 96, 16, 59]
    for label in tensor_algebra.CONVENTION_LABELS:
        if label != accepted:
            assert tensor_algebra.convention_algebra(label)._products.cache_info().misses == 32


def test_cli_relations_without_an_accepted_convention_reports_every_residual(
        capsys, monkeypatch, cold_caches):
    from test_tensor_algebra import ACCEPTED, LITERAL_RESIDUALS, REGROUPED_RESIDUALS

    rejected = tuple(label for label in tensor_algebra.CONVENTION_LABELS
                     if label != ACCEPTED)
    monkeypatch.setattr(tensor_algebra, "CONVENTION_LABELS", rejected)
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 1
    want = []
    for label in rejected:
        for variant, table in (("literal", LITERAL_RESIDUALS),
                               ("regrouped", REGROUPED_RESIDUALS)):
            for name, terms in table[label].items():
                verdict = "PASS" if terms == 0 else "FAIL"
                want.append(f"RELATION {name}[{variant},{label}] "
                            f"residual_terms={terms} {verdict}")
    lines = out.splitlines()
    assert lines[:-1] == want and len(want) == 30
    assert lines[-1] == "VERIFY relations checks=30 failures=30 FAIL"


def test_eval_with_a_forced_sign_builds_its_catalog_only_when_read(capsys, monkeypatch,
                                                                 cold_caches):
    built = []
    build = tensor_algebra.build_catalog

    def counted(alg):
        built.append(alg.pform)
        return build(alg)

    monkeypatch.setattr(tensor_algebra, "build_catalog", counted)
    code, out, _ = run_cli(capsys, "eval", "--sign", "+1", "E1")
    assert (code, out, built) == (0, "(E1) ot (1)\n", [])
    code, out, _ = run_cli(capsys, "eval", "--sign", "+1", "b - b")
    assert (code, out) == (0, "0\n")
    assert [p.describe() for p in built] == ["gram=trace/4 sign=+1"]


def test_verify_invariance_prints_the_certificate_of_build_catalog(capsys, monkeypatch, cat):
    calls = []
    monkeypatch.setattr(tensor_algebra.TensorAlgebra, "ad_action",
                        lambda self, z, x: calls.append(z))
    code, out, _ = run_cli(capsys, "verify", "invariance")
    assert (code, calls) == (0, [])
    assert out.count(" residual_terms=0 PASS") == 78
    assert cat.invariance[("Dk", Gen.F2)] == 0 and len(cat.invariance) == 78


# -- how often each convention is built ----------------------------------------------

def test_a_second_catalog_or_uc_load_builds_no_algebra(monkeypatch, tmp_path, cat,
                                                       cold_caches):
    built = []
    init = tensor_algebra.TensorAlgebra.__init__

    def counted(self, pform):
        built.append(pform)
        init(self, pform)

    monkeypatch.setattr(tensor_algebra.TensorAlgebra, "__init__", counted)
    tensor_algebra.catalog_for_sign(+1)
    built.clear()
    tensor_algebra.catalog_for_sign(+1)
    assert built == []

    # a load builds the algebra of its convention, and no catalog (the dump
    # reads that algebra too, so it is written before the caches are emptied)
    path = tmp_path / "h.element"
    dump_element(cat.elements["h"], str(path))
    cold_caches()
    built.clear()
    monkeypatch.setattr(tensor_algebra, "build_catalog", None)
    assert load_element(str(path)) == cat.elements["h"]
    assert built == [cat.algebra.pform]
    assert load_element(str(path)) == cat.elements["h"]
    assert built == [cat.algebra.pform]


def test_loaded_elements_equal_the_catalog_elements(cat):
    for name, el in cat.elements.items():
        text = dumps_element(el)
        back = loads_element(text)
        assert back.algebra is el.algebra, name
        assert back == el and hash(back) == hash(el), name
        assert dumps_element(back) == text, name


# -- the process caches ----------------------------------------------------------------

PROCESS_CACHES = {
    "invariants.eliminated_degree",
    "invariants.freeness_certificate",
    "lie_core.table_certificate",
    "matrix_oracle.basis_matrices",
    "serialization._coeff_of",
    "serialization._key_of",
    "serialization._row_of",
    "sym_ext.build_st_catalog",
    "tensor_algebra.adjudicate_convention",
    "tensor_algebra.convention_algebra",
    "uea._orderings_sum",
    "uea.gen_commutator",
    "uea.insert_gen",
    "uea.pbw_pair_product",
}

# Each per-algebra table, by its path from the TensorAlgebra.
ALGEBRA_TABLES = {"_products", "_actions", "cl._insert_table", "cl.table", "cl.k_table",
                  "cl._tau_table"}


def test_every_process_memo_is_a_functools_cache():
    # the memos that outlive an algebra are exactly these caches, and no
    # module rebinds a global of its own
    assert set(package_caches()) == PROCESS_CACHES
    src = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), name


def test_every_per_algebra_memo_is_one_of_six_tables(cat):
    # the memos an algebra keeps are exactly these caches, a fresh algebra's
    # as the accepted one's after its catalog is built
    for alg in (cat.algebra, TensorAlgebra(cat.algebra.pform)):
        found = {f"{prefix}{name}" for prefix, owner in (("", alg), ("cl.", alg.cl))
                 for name, value in vars(owner).items() if hasattr(value, "cache_info")}
        assert found == ALGEBRA_TABLES


def test_clearing_the_caches_never_changes_a_result(capsys, tmp_path, cold_caches):
    path, se_path = tmp_path / "h.element", tmp_path / "se.h.element"
    argvs = (["verify", "table"], ["verify", "relations"], ["verify", "chain"],
             ["eval", "ad(E1, d * f)"], ["dump", "h", "--out", str(path)], ["load", str(path)],
             ["dump", "h", "--ambient", "se", "--out", str(se_path)], ["load", str(se_path)],
             ["verify", "independence", "--max-degree", "6"])

    def run_all():
        runs = [run_cli(capsys, *argv) for argv in argvs]
        return runs, path.read_bytes(), se_path.read_bytes()

    cold = run_all()
    warm = run_all()
    cold_caches()
    assert not any(fn.cache_info().currsize for fn in package_caches().values())
    again = run_all()
    assert all(fn.cache_info().currsize for fn in package_caches().values())
    assert cold == warm == again
    assert [code for code, _, _ in again[0]] == [0] * 9


def test_warm_table_and_chain_runs_print_what_the_first_run_printed(capsys, cold_caches):
    with open(os.path.join(DATA, "verify_table.stdout")) as fh:
        table = fh.read()
    for argv in (["verify", "table"], ["verify", "chain"]):
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first
        assert first[0] == 0
    assert first[1].count("CHAIN ") == 8
    assert run_cli(capsys, "verify", "table") == (0, table, "")


def test_verify_all_proves_the_table_once_per_process(capsys, cold_caches):
    from so41inv import lie_core
    with open(os.path.join(DATA, "verify_all.stdout")) as fh:
        golden = fh.read()
    for _ in range(2):
        assert run_cli(capsys, "verify", "all") == (0, golden, "")
    info = lie_core.table_certificate.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_the_chain_is_derived_once_per_catalog(capsys, monkeypatch, cold_caches):
    derived = []
    derive = tensor_algebra.derive_chain

    def counted(catalog):
        derived.append(catalog)
        return derive(catalog)

    monkeypatch.setattr(tensor_algebra, "derive_chain", counted)
    for argv in (["verify", "chain"], ["verify", "chain"], ["verify", "chain", "--sign", "-1"]):
        assert run_cli(capsys, *argv)[0] == 0
    cat = tensor_algebra.accepted_catalog()
    assert cat is tensor_algebra.catalog_for_sign(-1)
    assert derived == [cat]
    # each call hands out a fresh list of frozen steps
    steps = tensor_algebra.generator_chain_check(cat)
    steps.clear()
    assert tensor_algebra.generator_chain_check(cat) == list(cat.chain)
    assert len(cat.chain) == 8 and derived == [cat]
    with pytest.raises(AttributeError):
        cat.chain[0].ok = False
    # so are the cached identity checks that verify relations prints
    with pytest.raises(AttributeError):
        cat.checks[0].ok = False


# Runs the command line in a fresh process and reports on stderr how many
# TensorAlgebra objects it constructed.
COUNT_ALGEBRAS = """
import sys
from so41inv import cli, tensor_algebra
built = []
init = tensor_algebra.TensorAlgebra.__init__
def counted(self, pform):
    built.append(pform)
    init(self, pform)
tensor_algebra.TensorAlgebra.__init__ = counted
code = cli.main(sys.argv[1:])
print(f"ALGEBRAS {len(built)}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, algebras, code", [
    (["verify", "relations", "--sign", "+1"], 1, 1),
    (["eval", "ad(E3, d)"], 0, 2),
    (["eval", "--ambient", "se", "ad(E1, h)"], 0, 0),
], ids=["relations+1", "eval-p", "eval-se"])
def test_fresh_process_builds_only_the_conventions_it_reads(argv, algebras, code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", COUNT_ALGEBRAS, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.stderr.splitlines()[-1] == f"ALGEBRAS {algebras}"
    assert run.returncode == code


DATA = os.path.join(os.path.dirname(__file__), "data")


# stdout and exit code of the command line: verify all, independence and
# rank16 recorded before the freeness checks moved from U(g) tensor C(p) to
# its associated graded algebra; table, relations --sign +1 and invariance
# before the table was certified in one elimination and each convention
# built once per process
@pytest.mark.parametrize("argv, golden, code", [
    (["verify", "all"], "verify_all.stdout", 0),
    (["verify", "independence", "--max-degree", "8"],
     "verify_independence_max_degree_8.stdout", 0),
    (["verify", "rank16", "--sign", "+1"], "verify_rank16_sign_plus.stdout", 0),
    (["verify", "rank16", "--sign", "-1"], "verify_rank16_sign_minus.stdout", 0),
    (["verify", "table"], "verify_table.stdout", 0),
    (["verify", "relations", "--sign", "+1"], "verify_relations_sign_plus.stdout", 1),
    (["verify", "invariance"], "verify_invariance.stdout", 0),
    (["verify", "chain", "--sign", "+1"], "verify_chain_sign_plus.stdout", 1),
    (["verify", "chain", "--sign", "-1"], "verify_chain_sign_minus.stdout", 0),
], ids=["all", "independence-8", "rank16+1", "rank16-1", "table", "relations+1",
        "invariance", "chain+1", "chain-1"])
def test_cli_output_matches_the_recorded_golden(argv, golden, code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "so41inv.cli", *argv], env=env,
                         capture_output=True, timeout=300)
    with open(os.path.join(DATA, golden), "rb") as fh:
        assert run.stdout == fh.read()
    assert run.returncode == code



# Dumps every catalog name under one ambient and sign and loads it back, each
# through the command line in one fresh process, and prints per name the
# sha256 of the element file and of the element text that load printed.
DUMP_AND_LOAD = """
import contextlib, hashlib, io, os, sys
from so41inv import cli
ambient, sign, out = sys.argv[1:]
for name in ("a1", "a2", "b", "c", "D", "Dk", "d", "e", "f", "g", "h", "i", "j"):
    path = os.path.join(out, f"{ambient}.{name}.element")
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["dump", name, "--ambient", ambient, "--sign", sign, "--out", path])
    if code:
        print(ambient, name, "exit", code)
        continue
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(["load", path]) == 0
    with open(path, "rb") as fh:
        element = hashlib.sha256(fh.read()).hexdigest()
    printed = hashlib.sha256(text.getvalue().split("\\n", 1)[1].encode()).hexdigest()
    print(ambient, name, element, printed)
"""


# element files and load output of every named element, adjudicated and
# under --sign +1, recorded before adjudication refuted conventions by the j
# identity; S(g) tensor Lambda(p) has no Dk
@pytest.mark.parametrize("ambient, sign, golden", [
    ("uc", "auto", "dump_sha256.txt"),
    ("se", "auto", "dump_sha256.txt"),
    ("uc", "+1", "dump_sha256_sign_plus.txt"),
], ids=["uc", "se", "uc+1"])
def test_dumped_elements_match_the_recorded_golden(ambient, sign, golden, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", DUMP_AND_LOAD, ambient, sign, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    with open(os.path.join(DATA, golden)) as fh:
        want = [ln for ln in fh.read().splitlines() if ln.startswith(ambient + " ")]
    if ambient == "se":
        want.insert(5, "se Dk exit 2")
    assert run.stdout.splitlines() == want


# every kernel basis file of degrees 0-7 and the stdout that announced them,
# recorded before the zero-weight block was ranked through its transpose
def test_emitted_bases_match_the_recorded_golden(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "so41inv.cli", "verify", "dims",
                          "--max-degree", "7", "--emit-basis", "basis"],
                         env=env, cwd=tmp_path, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = {"stdout": hashlib.sha256(run.stdout).hexdigest()}
    for path in (tmp_path / "basis").iterdir():
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    with open(os.path.join(DATA, "emit_sha256.txt")) as fh:
        want = dict(ln.split() for ln in fh.read().splitlines() if not ln.startswith("#"))
    assert len(want) == 111
    assert got == want


def test_a_warm_process_emits_the_recorded_bases(capsys, monkeypatch, tmp_path, cold_caches):
    # the second emission in one process reads the memoized bases and must
    # write the same 110 files and the same stdout as a fresh process
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "dims", "--max-degree", "7", "--emit-basis", "basis"]
    with open(os.path.join(DATA, "emit_sha256.txt")) as fh:
        want = dict(ln.split() for ln in fh.read().splitlines() if not ln.startswith("#"))
    for _ in range(2):
        shutil.rmtree(tmp_path / "basis", ignore_errors=True)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        for path in (tmp_path / "basis").iterdir():
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert len(got) == 111
        assert got == want


def _eval_realm_cases():
    with open(os.path.join(DATA, "eval_realms.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [pytest.param(*line.split("|"), id=f"line{n}")
            for n, line in enumerate(lines, 1) if not line.startswith("#")]


def _eval_long_cases():
    with open(os.path.join(DATA, "eval_long_sha256.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cases = [line.split("|") for line in lines if not line.startswith("#")]
    return [pytest.param(*case, id=f"{case[0]}:{case[1]}") for case in cases]


# the whole canonical text of three long elements, byte for byte
@pytest.mark.parametrize("ambient, expr, size, digest", _eval_long_cases())
def test_eval_of_a_long_element_prints_the_recorded_bytes(capsys, ambient, expr, size, digest):
    code, out, err = run_cli(capsys, "eval", "--ambient", ambient, "--", expr)
    assert (code, err) == (0, "")
    text = out.encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (int(size), digest)


# exit code, stdout and stderr of eval in every realm: ot and wedges in both
# ambients, powers, ad by g in U(g) and S(g) and by k elsewhere, sigma, tau
# and rho inside and outside their realms, and the noun of every error;
# recorded while each sub-realm still had its own element type
@pytest.mark.parametrize("ambient, expr, code, out, err", _eval_realm_cases())
def test_eval_prints_what_the_recorded_realm_cases_printed(capsys, ambient, expr, code,
                                                             out, err):
    want = (int(code), out and out + "\n", err and err + "\n")
    assert run_cli(capsys, "eval", "--ambient", ambient, "--", expr) == want
