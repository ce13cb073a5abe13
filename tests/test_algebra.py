"""Coefficient ring, parameter specs, and the element containers."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import bruteforce
from treehopf.algebra import (
    EXPONENT_LIMIT,
    MAX_SYMBOL_COLOUR,
    ONE,
    ZERO,
    Coeff,
    Combination,
    Element,
    QSpec,
    TensorElement,
    parse_coeff,
    parse_element,
    parse_tensor,
    sigma,
)
from treehopf.trees import (
    ColourMismatchError,
    EMPTY_FOREST,
    Forest,
    ParseError,
    enumerate_forests_up_to,
    parse_forest,
    parse_tree,
)

Q11 = Coeff.variable(1, 1)
Q21 = Coeff.variable(2, 1)
Q12 = Coeff.variable(1, 2)
Q22 = Coeff.variable(2, 2)


# ---------------------------------------------------------------------------
# the coefficient ring
# ---------------------------------------------------------------------------


def test_printing_examples():
    assert str(Coeff.rational(Fraction(2, 3)) * Q11 ** 2 * Q22) == "2/3*q11^2*q22"
    assert str(Coeff.rational(Fraction(2, 3)) * Q11 ** 2 * Q22 - Q21) == (
        "-q21 + 2/3*q11^2*q22"
    )
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(Q11 - Q21) == "q11 - q21"


def test_parse_examples():
    assert parse_coeff("2/3*q11^2*q22 - q21") == (
        Coeff.rational(Fraction(2, 3)) * Q11 ** 2 * Q22 - Q21
    )
    assert parse_coeff("0") == ZERO
    assert parse_coeff("-5/7") == Coeff.rational(Fraction(-5, 7))
    assert parse_coeff("q21") == Q21
    assert parse_coeff("1 + q11") == ONE + Q11


def test_arithmetic():
    assert Q11 * Q21 == Q21 * Q11
    assert (Q11 + Q21) * (Q11 - Q21) == Q11 ** 2 - Q21 ** 2
    assert (Q11 + 1) ** 3 == Q11 ** 3 + 3 * Q11 ** 2 + 3 * Q11 + ONE
    assert Q11 - Q11 == ZERO
    assert Coeff.rational(6) / 3 == 2
    assert Q11 ** 0 == ONE


def test_equality_accepts_plain_numbers():
    assert Coeff.rational(2) == 2
    assert Coeff.rational(Fraction(1, 2)) == Fraction(1, 2)
    assert ZERO == 0 and ONE == 1
    assert Q11 != 1


def test_substitute():
    poly = Q11 ** 2 * Q22 + Q21
    assert poly.substitute({(1, 1): 1, (2, 2): 0, (2, 1): 0}) == ZERO
    assert poly.substitute({(1, 1): 2}) == 4 * Q22 + Q21
    # substituting a polynomial works too
    assert (Q11 ** 2).substitute({(1, 1): Q21 + 1}) == Q21 ** 2 + 2 * Q21 + ONE
    # a value in a symbol the term keeps multiplies into that symbol
    assert (Q11 * Q21 ** 2).substitute({(1, 1): Q21 - Q22}) == Q21 ** 3 - Q21 ** 2 * Q22
    assert (Q11 + Q12).substitute({}) == Q11 + Q12
    half = Coeff.rational(Fraction(1, 2))
    assert (half * Q11 + half * Q12).substitute({(1, 1): 1, (1, 2): 1}) == ONE


def test_substitute_refuses_an_overflowing_exponent():
    big = Q21 ** (EXPONENT_LIMIT - 1)
    with pytest.raises(ValueError, match=str(EXPONENT_LIMIT)):
        (Q11 * big).substitute({(1, 1): Q21})


def test_as_fraction_guards():
    with pytest.raises(ValueError):
        Q11.as_fraction()
    assert (Q11 - Q11).as_fraction() == 0
    assert Coeff.rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)


def test_variable_symbol_validation():
    with pytest.raises(ValueError):
        Coeff.variable(3, 1)
    with pytest.raises(ValueError):
        Coeff.variable(1, 0)
    assert str(Coeff.variable(2, MAX_SYMBOL_COLOUR)) == f"q2{MAX_SYMBOL_COLOUR}"
    with pytest.raises(ValueError):
        Coeff.variable(1, MAX_SYMBOL_COLOUR + 1)


def test_equal_values_hash_equal():
    assert Coeff.rational(Fraction(4, 2)) == Coeff.rational(2)
    assert hash(Coeff.rational(Fraction(4, 2))) == hash(Coeff.rational(2))
    half = Coeff.rational(Fraction(1, 2))
    assert half * 2 == ONE and hash(half * 2) == hash(ONE)
    assert hash(half * Q12 + half * Q12) == hash(Q12)
    assert hash(Q11 * Fraction(1, 3) * 3) == hash(Q11)
    assert {Coeff.rational(2): "two"}[Coeff.rational(Fraction(6, 3))] == "two"


def test_a_constant_hashes_as_the_number_it_equals():
    for value in (0, 3, -2, Fraction(1, 2)):
        c = Coeff.rational(value)
        assert c == value and hash(c) == hash(value)
        assert {value: "plain"}.get(c) == "plain"
        assert {c: "coeff"}.get(value) == "coeff"
    assert hash(ZERO) == hash(0) and {0: "zero"}.get(ZERO) == "zero"


def test_power_is_the_repeated_product():
    base = Q11 + Q21 + 1
    product = ONE
    for k in range(10):
        assert base ** k == product
        product = product * base


def test_exponent_limit():
    big = Q11 ** (EXPONENT_LIMIT - 1)
    assert str(big) == f"q11^{EXPONENT_LIMIT - 1}"
    assert str(big * Q21) == f"q11^{EXPONENT_LIMIT - 1}*q21"
    for overflow in (lambda: Q11 ** EXPONENT_LIMIT, lambda: big * Q11,
                     lambda: (big + 1) * (Q11 - 1),
                     lambda: Coeff({(((1, 1), EXPONENT_LIMIT),): 1})):
        with pytest.raises(ValueError, match=str(EXPONENT_LIMIT)):
            overflow()
    assert parse_coeff(f"q11^{EXPONENT_LIMIT - 1}") == big
    with pytest.raises(ParseError, match=str(EXPONENT_LIMIT)) as info:
        parse_coeff(f"2*q11^{EXPONENT_LIMIT}")
    assert info.value.pos == len("2*q11^")


def test_the_last_symbol_field_is_guarded():
    top = Coeff.variable(2, MAX_SYMBOL_COLOUR)
    with pytest.raises(ValueError, match=str(EXPONENT_LIMIT)):
        top ** EXPONENT_LIMIT
    product = top ** (EXPONENT_LIMIT - 1) * Q11
    assert product.terms == (((((1, 1), 1), ((2, MAX_SYMBOL_COLOUR), EXPONENT_LIMIT - 1)), 1),)


def test_a_zero_denominator_is_a_parse_error_at_the_denominator():
    for text, pos in [("1/0", 2), ("3 / 00*q11", 4)]:
        with pytest.raises(ParseError, match="zero denominator") as info:
            parse_coeff(text)
        assert info.value.pos == pos
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element("1/0 []", 1)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_tensor("[] ⊗ 1 + 2/0 1 ⊗ []", 1)


coeffs = st.builds(
    lambda pairs: sum(
        (Coeff.rational(r) * Q11 ** a * Q21 ** b for r, a, b in pairs), ZERO
    ),
    st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


@given(
    st.one_of(
        coeffs,
        st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Coeff.rational),
        st.just(ZERO),
    )
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_power_is_repeated_multiplication(a):
    # __pow__ seeds its product with a square of the base, not with ONE
    product = ONE
    for k in range(10):
        assert a ** k == product
        product = product * a
    assert ZERO ** 0 == ONE


@given(coeffs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_coeff_print_parse_roundtrip(a):
    assert parse_coeff(str(a)) == a


@pytest.mark.parametrize(
    "text",
    ["q11*q21000^3", "q21024", "q1512^2*q2513", "q11024 - 3/4*q2700 + 2*q11^5*q21"],
)
def test_sparse_high_colour_monomials_print_and_parse_back(text):
    c = parse_coeff(text)
    assert str(c) == text
    assert parse_coeff(str(c)) == c


# every symbol over n = 3, so fields above the first two and gaps between
# the fields a monomial uses both occur
SYMBOLS3 = [(i, j) for j in (1, 2, 3) for i in (1, 2)]

ref_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
    ),
    max_size=4,
)


# a plain int or Fraction operand, which Coeff's operators take as it is
plain_operands = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


def _coeff_and_reference(terms):
    if not isinstance(terms, list):  # a plain number
        return terms, bruteforce.RefPoly.monomial(terms, {})
    coeff, ref = ZERO, bruteforce.RefPoly()
    for value, exps in terms:
        mono = Coeff.rational(value)
        for sym, e in zip(SYMBOLS3, exps):
            mono = mono * Coeff.variable(*sym) ** e
        coeff = coeff + mono
        ref = ref + bruteforce.RefPoly.monomial(value, dict(zip(SYMBOLS3, exps)))
    return coeff, ref


# each side is a Coeff in about half the draws, so four times the
# examples of a Coeff-only draw keep the Coeff x Coeff products at 80
@given(st.one_of(ref_terms, plain_operands), st.one_of(ref_terms, plain_operands))
@settings(max_examples=320, deadline=None, derandomize=True)
def test_packed_ring_matches_reference(x, y):
    a, ra = _coeff_and_reference(x)
    b, rb = _coeff_and_reference(y)
    event(" x ".join("Coeff" if isinstance(s, list) else "plain" for s in (x, y)))
    assert str(a) == str(ra) and str(b) == str(rb)
    if not isinstance(a, Coeff) and not isinstance(b, Coeff):
        a = Coeff.rational(a)
    for got, want in ((a + b, ra + rb), (a - b, ra + -rb), (a * b, ra * rb)):
        assert str(got) == str(want)
        rebuilt = Coeff(want.terms)
        assert got == rebuilt and hash(got) == hash(rebuilt)
        # canonical values: an int when integral, whichever side was plain
        assert [type(v) for _, v in got.terms] == [type(v) for _, v in rebuilt.terms]


@given(coeffs, coeffs)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_substitution_is_a_homomorphism(a, b):
    point = {(1, 1): Fraction(2, 3), (2, 1): -2}
    assert (a * b).substitute(point) == a.substitute(point) * b.substitute(point)
    assert (a + b).substitute(point) == a.substitute(point) + b.substitute(point)


# ---------------------------------------------------------------------------
# parameter specs
# ---------------------------------------------------------------------------


def test_qspec_constructors():
    sym = QSpec.symbolic(2)
    assert sym.q(1, 2) == Q12 and sym.q(2, 1) == Q21
    ck = QSpec.connes_kreimer()
    assert ck.n == 1 and ck.q(1, 1) == 1 and ck.q(2, 1) == 0
    ind = QSpec.indicator(3, {1, 3})
    assert [ind.q(1, j) for j in (1, 2, 3)] == [1, 0, 1]
    assert all(ind.q(2, j) == 0 for j in (1, 2, 3))
    tied = QSpec.symmetric_symbolic(2)
    assert tied.q(1, 1) == tied.q(2, 1) and tied.q(1, 2) == tied.q(2, 2)


def test_qspec_from_strings():
    qs = QSpec.from_strings(2, ["1", "-2/3", "sym", "0"])
    assert qs.q(1, 1) == 1
    assert qs.q(1, 2) == Fraction(-2, 3)
    assert qs.q(2, 1) == Q21
    assert qs.q(2, 2) == 0
    with pytest.raises(ValueError):
        QSpec.from_strings(2, ["1", "0"])
    with pytest.raises(ValueError):
        QSpec.indicator(2, {5})


def test_qspec_decimal_exponents():
    # a zero mantissa is 0 without raising ten to its exponent
    assert QSpec.from_strings(1, ["0e999999999", "0e999999"]).entries == (ZERO, ZERO)
    assert QSpec.from_strings(1, ["1e-4000", "1"]).q(1, 1) == Fraction(1, 10**4000)
    # 10^4300 has one digit more than int printing allows
    with pytest.raises(ValueError, match="q11 = '1e4300'"):
        QSpec.from_strings(1, ["1e4300", "1"])


def test_qspec_is_rational():
    assert QSpec.connes_kreimer().is_rational()
    assert not QSpec.symbolic(1).is_rational()


# ---------------------------------------------------------------------------
# elements and tensors
# ---------------------------------------------------------------------------


def leaf_elt(n=1):
    return Element(n, {parse_forest("[]", n): 1})


def test_element_algebra():
    e = leaf_elt()
    assert (e * e).support() == [parse_forest("[]*[]")]
    assert e * 2 - e == e
    assert Element.unit(1) * e == e
    two = Element(1, {EMPTY_FOREST: 2})
    assert two.counit() == 2
    assert e.counit() == 0


def test_element_grading():
    e = parse_element("[] + [1:[]]*[] + 2/3 [1:[1:[]]]", 1)
    assert e.max_degree() == 3
    assert e.graded_part(1) == parse_element("[]", 1)
    assert e.graded_part(3) == parse_element("[1:[]]*[] + 2/3 [1:[1:[]]]", 1)
    assert e.graded_part(0).is_zero()


def test_element_print_parse_roundtrip():
    # `coef forest` with a space, coefficients as printed monomials
    for text in [
        "0",
        "1",
        "[]",
        "-[] + 2 [1:[]]",
        "q11 [1:[]] - q21 []*[]",
        "2/3*q11^2 [1:[1:[]]] + [] - 1",
    ]:
        e = parse_element(text, 1)
        assert parse_element(str(e), 1) == e


def test_element_colour_check():
    with pytest.raises(ColourMismatchError):
        Element(1, {parse_forest("[2:[]]", 2): 1})


def test_tensor_element():
    t = parse_tensor("[] ⊗ [1:[]] + q11 [] ⊗ []", 1)
    assert t == parse_tensor("[] (x) [1:[]] + q11 [] (x) []", 1)
    assert "⊗" in str(t)
    assert parse_tensor(str(t), 1) == t
    assert t.swap() == parse_tensor("[1:[]] ⊗ [] + q11 [] ⊗ []", 1)
    assert t.left_counit() == parse_element("0", 1)
    u = parse_tensor("1 ⊗ []*[]", 1)
    assert u.left_counit() == parse_element("[]*[]", 1)
    assert u.right_counit() == parse_element("0", 1)


def test_parsing_sums_terms_without_adding_combinations(monkeypatch):
    # parsing is linear in the term count: the terms go into one dict and
    # the combination is built once, never by adding partial sums
    forests = enumerate_forests_up_to(1, 9)[:1000]
    assert len(forests) == 1000

    def refuse(self, other):
        raise AssertionError("Combination.__add__ called while parsing")

    monkeypatch.setattr(Combination, "__add__", refuse)
    text = " + ".join(f"{k + 1} {f}" for k, f in enumerate(forests))
    assert parse_element(text, 1).data == {f: k + 1 for k, f in enumerate(forests)}
    text = " - ".join(f"{k + 1} {f} ⊗ []" for k, f in enumerate(forests))
    tensor = parse_tensor(text, 1)
    assert len(tensor) == 1000
    assert tensor.coefficient((forests[1], parse_forest("[]"))) == -2


def test_parsed_terms_collect():
    assert parse_element("[] - []", 1) == Element.zero(1)
    assert parse_element("2 [] + 3 []", 1) == Element(1, {parse_forest("[]"): 5})
    assert parse_element("0", 1) == Element.zero(1)
    assert parse_tensor("[] ⊗ 1 - [] ⊗ 1", 1) == TensorElement.zero(1)
    assert parse_tensor("2 [] ⊗ 1 + 3 [] ⊗ 1", 1) == TensorElement(
        1, {(parse_forest("[]"), EMPTY_FOREST): 5}
    )
    assert parse_tensor("0", 1) == TensorElement.zero(1)


def test_tensor_product_is_componentwise():
    a = parse_tensor("[] ⊗ 1", 1)
    b = parse_tensor("1 ⊗ []", 1)
    assert a * b == parse_tensor("[] ⊗ []", 1)


# ---------------------------------------------------------------------------
# the q-scaled product maps
# ---------------------------------------------------------------------------


def test_sigma_weights_by_slot_sizes():
    qs = QSpec.symbolic(2)
    f = Element(2, {parse_forest("[]*[]", 2): 1})
    g = Element(2, {Forest.single(parse_tree("[1:[]]", 2)): 1})
    out1 = sigma(1, qs, [f, g])
    assert out1 == Element(
        2, {parse_forest("[]*[]*[1:[]]", 2): Q11 ** 2 * Q12 ** 2}
    )
    out2 = sigma(2, qs, [f, g])
    assert out2 == Element(
        2, {parse_forest("[]*[]*[1:[]]", 2): Q21 ** 2 * Q22 ** 2}
    )
    # empty slots contribute exponent zero
    assert sigma(1, QSpec.symbolic(1), [Element.unit(1)]) == Element.unit(1)
    with pytest.raises(ValueError):
        sigma(3, qs, [f, g])


# one refusal of bad input per row: the call, the exception type and a
# fragment of its message
REFUSALS = {
    "coerce a string": (lambda: Coeff._coerce("x"), TypeError, "cannot treat 'x'"),
    "negative power": (lambda: Q11**-1, ValueError, "nonnegative integer"),
    "symbol without a row": (lambda: parse_coeff("q3"), ParseError, "bad coefficient symbol q3"),
    "no factor": (lambda: parse_coeff("x"), ParseError, "expected a coefficient factor"),
    "no term": (lambda: parse_element("*", 1), ParseError, "expected a term"),
    "no forest": (lambda: parse_element("2 3", 1), ParseError, "expected a forest after"),
    "entry count": (lambda: QSpec(1, (ONE,)), ValueError, "need exactly 2 entries"),
    "symbol off the spec": (lambda: QSpec.symbolic(1).q(3, 1), ValueError, "q31 is outside"),
    "sym past the colour limit": (
        lambda: QSpec.from_strings(
            MAX_SYMBOL_COLOUR + 1,
            ["1"] * MAX_SYMBOL_COLOUR + ["sym"] + ["1"] * (MAX_SYMBOL_COLOUR + 1),
        ),
        ValueError,
        f"over the {MAX_SYMBOL_COLOUR}-colour limit",
    ),
    "element keyed by a tree": (
        lambda: Element(1, {parse_tree("[]"): 1}),
        TypeError,
        "Element keys must be forests",
    ),
    "sum over different n": (
        lambda: Element.unit(1) + Element.unit(2),
        ValueError,
        "cannot combine Element over n=1 with Element over n=2",
    ),
    "tensor key not a pair": (
        lambda: TensorElement(1, {EMPTY_FOREST: 1}),
        TypeError,
        "keys must be forest pairs",
    ),
    "tensor colour over n": (
        lambda: TensorElement(1, {(parse_forest("[2:[]]"), EMPTY_FOREST): 1}),
        ColourMismatchError,
        "uses a colour > n = 1",
    ),
    "sigma slot count": (
        lambda: sigma(1, QSpec.symbolic(2), [Element.unit(2)]),
        ValueError,
        "sigma needs 2 slot arguments, got 1",
    ),
    "sigma slot over another n": (
        lambda: sigma(1, QSpec.symbolic(1), [Element.unit(2)]),
        ValueError,
        "slot elements must live over the same n",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
