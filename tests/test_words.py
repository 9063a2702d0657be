from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    EQUAL,
    GREATER,
    LESS,
    FactorSet,
    InputError,
    Order,
    all_orders,
    alph,
    alphabetical,
    factor_complexity,
    factors,
    is_palindrome,
    lex_compare,
    lex_le,
    max_factor,
    max_of,
    min_factor,
    min_of,
    reversal,
)

words_abc = st.text(alphabet="abc", min_size=1, max_size=40)


@pytest.mark.parametrize(
    "u, v, order, expected",
    [
        ("ab", "aba", "ab", LESS),
        ("aab", "aba", "ab", LESS),
        ("babac", "bac", "bac", LESS),
        ("aba", "aba", "ab", EQUAL),
        ("b", "a", "ab", GREATER),
    ],
)
def test_lex_compare(u, v, order, expected):
    assert lex_compare(u, v, Order(order)) == expected


def test_lex_compare_rejects_foreign_letters():
    with pytest.raises(InputError, match="letter 'c' outside alphabet 'ab'"):
        lex_compare("abc", "ab", Order("ab"))


def _lex_compare_by_letters(u, v, order):
    # Per-letter reference: the first differing letter decides by rank, and
    # when one word is a prefix of the other the shorter is smaller.
    for cu, cv in zip(u, v):
        ru, rv = order.letters.index(cu), order.letters.index(cv)
        if ru != rv:
            return LESS if ru < rv else GREATER
    if len(u) == len(v):
        return EQUAL
    return LESS if len(u) < len(v) else GREATER


def test_rank_keys_match_letter_loop_exhaustive():
    # Every pair of words of length 0-4 over abc, under all six orders.
    words = ["".join(t) for n in range(5) for t in product("abc", repeat=n)]
    for order in all_orders("abc"):
        for u in words:
            for v in words:
                expected = _lex_compare_by_letters(u, v, order)
                assert lex_compare(u, v, order) == expected
                assert lex_le(u, v, order) == (expected != GREATER)
        by_letters = cmp_to_key(lambda u, v: _lex_compare_by_letters(u, v, order))
        assert sorted(words, key=order.key) == sorted(words, key=by_letters)


@given(words_abc, words_abc, words_abc)
def test_lex_compare_total_order(u, v, w):
    order = Order("bca")
    assert lex_compare(u, v, order) == -lex_compare(v, u, order)
    if lex_compare(u, v, order) != GREATER and lex_compare(v, w, order) != GREATER:
        assert lex_compare(u, w, order) != GREATER


def test_factors():
    assert factors("abab", 2) == {"ab", "ba"}
    assert factors("baabacababac", 1) == {"a", "b", "c"}
    assert factors("aaa", 3) == {"aaa"}
    with pytest.raises(InputError):
        factors("abc", 4)
    with pytest.raises(InputError):
        factors("abc", 0)


@given(words_abc)
def test_factor_set_consistency(w):
    fs = FactorSet.of(w)
    assert len(fs.by_length[1]) == len(alph(w))
    for n in range(2, len(w) + 1):
        for f in fs.by_length[n]:
            assert f[:-1] in fs.by_length[n - 1]
            assert f[1:] in fs.by_length[n - 1]


@pytest.mark.parametrize(
    "w, k, order, expected",
    [
        ("baabacababac", 5, "bac", "babac"),
        ("ababaabaabab", 8, "ab", "aabaabab"),
        ("aaaa", 2, "ab", "aa"),
    ],
)
def test_min_factor(w, k, order, expected):
    assert min_factor(w, k, Order(order)) == expected


@pytest.mark.parametrize(
    "order, expected",
    [
        ("abc", "aabacababac"),
        ("acb", "aabacababac"),
        ("bac", "babac"),
        ("bca", "babac"),
        ("cab", "cababac"),
        ("cba", "cababac"),
    ],
)
def test_min_of_all_orders(order, expected):
    assert min_of("baabacababac", Order(order)) == expected


def test_min_of_max_of_binary():
    assert min_of("ababaabaabab", Order("ab")) == "aabaabab"
    assert max_of("ababaabaabab", Order("ab")) == "babaabaabab"
    assert min_of("aabababaabaab", Order("ab")) == "aabaab"
    assert max_of("aabababaabaab", Order("ab")) == "bababaabaab"


def test_min_of_empty_word_rejected():
    with pytest.raises(InputError):
        min_of("", Order("ab"))


def _extremal_by_definition(w, order, extremal_factor):
    # Literal reading: the largest k whose shorter extremal factors all stack
    # up as prefixes of the length-k one (min_factor for min(w), max_factor
    # for its dual max(w)).
    extremes = [extremal_factor(w, k, order) for k in range(1, len(w) + 1)]
    valid = [
        k
        for k in range(1, len(w) + 1)
        if all(extremes[j - 1] == extremes[k - 1][:j] for j in range(1, k + 1))
    ]
    return extremes[max(valid) - 1]


@settings(max_examples=150)
@given(words_abc)
def test_min_of_matches_definition(w):
    for order in all_orders(alph(w)):
        assert min_of(w, order) == _extremal_by_definition(w, order, min_factor)
        assert max_of(w, order) == _extremal_by_definition(w, order, max_factor)


@settings(max_examples=150)
@given(words_abc)
def test_min_of_is_unioccurrent_suffix(w):
    for order in all_orders(alph(w)):
        m = min_of(w, order)
        assert w.endswith(m)
        count, start = 0, 0
        while (i := w.find(m, start)) != -1:
            count += 1
            start = i + 1
        assert count == 1

        mx = max_of(w, order)
        assert w.endswith(mx)


def test_reversal_and_palindromes():
    assert reversal("abc") == "cba"
    assert is_palindrome("abacaba")
    assert is_palindrome("")
    assert not is_palindrome("ab")


def test_factor_complexity_unary():
    assert factor_complexity("aaaa", 3) == [1, 1, 1]


def test_orders():
    assert Order("bac").min_letter == "b"
    assert alphabetical("cba").letters == "abc"
    assert len(all_orders("abc")) == 6
    with pytest.raises(InputError):
        Order("aab")
    with pytest.raises(InputError):
        Order("abcdefghi")
