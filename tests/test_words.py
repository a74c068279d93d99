import pytest

from rigidsolv.errors import CapExceededError, WordSyntaxError
from rigidsolv.words import (
    MAX_NESTING,
    MAX_WORD_LENGTH,
    VarLetter,
    commutator,
    conjugate,
    free_reduce,
    invert,
    parse_letters,
    parse_word,
    power,
    word_to_str,
)


def test_parse_simple():
    assert parse_word("x1 x2 X1") == (1, 2, -1)
    assert parse_word("") == ()
    assert parse_word("  x3  ") == (3,)


def test_parse_no_whitespace_needed():
    assert parse_word("x1x2X1") == (1, 2, -1)


def test_commutator_sugar():
    assert parse_word("[x1,x2]") == (-1, -2, 1, 2)
    assert parse_word("[x1, x2 x1]") == (-1, -1, -2, 1, 2, 1)


def test_conjugation_sugar():
    assert parse_word("x1^x2") == (-2, 1, 2)
    assert parse_word("x1^{x2}") == (-2, 1, 2)
    assert parse_word("[x1,x2]^x1") == (-1, -1, -2, 1, 2, 1)


def test_power_sugar():
    assert parse_word("x1^3") == (1, 1, 1)
    assert parse_word("x1^-2") == (-1, -1)
    assert parse_word("(x1 x2)^-1") == (-2, -1)
    assert parse_word("(x1 x2)^2") == (1, 2, 1, 2)


def test_nested_sugar():
    # [[x1,x2],[x1,x2]^x1] expands through nesting
    inner = (-1, -2, 1, 2)
    expected = commutator(inner, conjugate(inner, (1,)))
    assert parse_word("[[x1,x2],[x1,x2]^{x1}]") == expected


def test_chained_conjugation_left_assoc():
    assert parse_word("x1^x2^x3") == conjugate(conjugate((1,), (2,)), (3,))


def test_variables_rejected_in_constant_words():
    with pytest.raises(WordSyntaxError):
        parse_word("$1 x1")


def test_parse_letters_with_variables():
    letters = parse_letters("$1 x2 ($2)^-1")
    assert letters == (VarLetter(1, 1), 2, VarLetter(2, -1))


def test_error_positions():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x1 )")
    assert info.value.line == 1
    assert info.value.column == 4
    with pytest.raises(WordSyntaxError) as info:
        parse_word("x1 [x2", line=7)
    assert info.value.line == 7


def test_error_cases():
    for bad in ["x0", "y1", "x1^", "[x1]", "[x1,x2", "x1 ,", "5"]:
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_nesting_cap():
    depth = MAX_NESTING
    assert parse_word("(" * depth + "x1" + ")" * depth) == (1,)
    assert parse_word("{(" * (depth // 2) + "x1" + ")}" * (depth // 2)) == (1,)
    for opener, closer in (("(", ")"), ("{", "}"), ("[x1,", "]")):
        text = opener * 3000 + "x2" + closer * 3000
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text)
        assert info.value.column == len(opener) * depth + 1
    with pytest.raises(WordSyntaxError):
        parse_letters("(" * 3000 + "[$1,x1]" + ")" * 3000)


def test_word_length_cap():
    assert len(parse_word(f"x1^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
    assert len(parse_word(f"x1^-{MAX_WORD_LENGTH - 1} x2")) == MAX_WORD_LENGTH
    for text in (
        f"x1^{MAX_WORD_LENGTH + 1}",
        f"x1^-{MAX_WORD_LENGTH} x2",  # the juxtaposed letter overflows
        f"x2^(x1^{MAX_WORD_LENGTH // 2})",  # conjugation: 1 + 2 * L letters
        f"[x1^{MAX_WORD_LENGTH // 2}, x2]",  # commutator: 2 * (L + 1) letters
    ):
        with pytest.raises(CapExceededError):
            parse_word(text)
    with pytest.raises(CapExceededError):
        parse_letters("[$1," * 20 + "x1^2000" + "]" * 20)
    # Each sugar refuses its own expansion, before building it.
    u = (1,) * (MAX_WORD_LENGTH // 2)
    for expand in (
        lambda: power(u, 3),
        lambda: power(u, -3),
        lambda: conjugate((2,), u),
        lambda: commutator(u, (2,)),
    ):
        with pytest.raises(CapExceededError):
            expand()


def test_generator_range_check():
    assert parse_word("x2", ngens=2) == (2,)
    with pytest.raises(WordSyntaxError):
        parse_word("x3", ngens=2)


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 1)) == (1, 2, 1)


def test_invert_power_roundtrip():
    w = (1, -2, 1)
    assert free_reduce(w + invert(w)) == ()
    assert power(w, 0) == ()
    assert power(w, -1) == invert(w)


def test_empty_word_to_a_huge_power():
    # Past sys.maxsize, `() * k` itself would raise OverflowError.
    huge = 10**20
    assert power((), huge) == power((), -huge) == ()


def test_algebra_on_variable_letters_matches_the_parser():
    u = parse_letters("$1 x2 ($2)^-1")
    v = parse_letters("X1 $3")
    assert invert(u) == parse_letters("($1 x2 ($2)^-1)^-1")
    assert invert(u) == (VarLetter(2, 1), -2, VarLetter(1, -1))
    assert power(u, -2) == parse_letters("($1 x2 ($2)^-1)^-2")
    assert power(u, 3) == parse_letters("($1 x2 ($2)^-1)^3")
    assert conjugate(u, v) == parse_letters("($1 x2 ($2)^-1)^(X1 $3)")
    assert commutator(u, v) == parse_letters("[$1 x2 ($2)^-1, X1 $3]")
    assert -VarLetter(4, -1) == VarLetter(4, 1)
    assert free_reduce(parse_letters("$1 ($1)^-1")) == ()
    assert free_reduce(parse_letters("$1 x1 ($2)^-1 $2 X1 $1")) == (
        VarLetter(1, 1), VarLetter(1, 1))


def test_word_to_str_roundtrip():
    w = (1, -2, 3)
    assert parse_word(word_to_str(w)) == w
