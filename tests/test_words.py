import random
import tracemalloc
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    DirectiveSpec,
    InputError,
    Order,
    all_orders,
    alph,
    factor_complexity,
    factors,
    lex_le,
    max_factor,
    max_of,
    min_factor,
    min_of,
    reversal,
    validate_word,
)
from epiword.words import _least_suffix_start_duval

words_abc = st.text(alphabet="abc", min_size=1, max_size=40)


def _rejected(w):
    with pytest.raises(InputError) as info:
        validate_word(w)
    assert str(info.value) == f"word must be lowercase a-z letters, got {w!r}"


def test_validate_word_every_single_character():
    for code in range(256):
        c = chr(code)
        if "a" <= c <= "z":
            assert validate_word(c) == c
        else:
            _rejected(c)


def test_validate_word_mixed_strings():
    letters = "abcdefghijklmnopqrstuvwxyz"
    assert validate_word("") == ""
    assert validate_word(letters * 3) == letters * 3
    long = "ab" * 500_000
    assert validate_word(long) is long
    for bad in ("A", "\n", " ", "-", "é", "ß", "\u212a", "\x00", "0"):
        for w in (bad, "ab" + bad, bad + "ab", "ab" + bad + "ba", letters + bad * 2):
            _rejected(w)
    _rejected(long + "\n")


LESS, EQUAL, GREATER = -1, 0, 1


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
    assert lex_le(u, v, Order(order)) == (expected != GREATER)
    assert lex_le(v, u, Order(order)) == (expected != LESS)


def test_lex_compare_rejects_foreign_letters():
    with pytest.raises(InputError, match="letter 'c' outside alphabet 'ab'"):
        lex_le("abc", "ab", Order("ab"))


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
                assert lex_le(u, v, order) == (expected != GREATER)
        by_letters = cmp_to_key(lambda u, v: _lex_compare_by_letters(u, v, order))
        assert sorted(words, key=order.key) == sorted(words, key=by_letters)


@given(words_abc, words_abc, words_abc)
def test_lex_compare_total_order(u, v, w):
    order = Order("bca")
    assert lex_le(u, v, order) or lex_le(v, u, order)
    assert (lex_le(u, v, order) and lex_le(v, u, order)) == (u == v)
    if lex_le(u, v, order) and lex_le(v, w, order):
        assert lex_le(u, w, order)


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
    assert len(factors(w, 1)) == len(alph(w))
    for n in range(2, len(w) + 1):
        shorter = factors(w, n - 1)
        for f in factors(w, n):
            assert f[:-1] in shorter
            assert f[1:] in shorter


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
    for extremal in (min_of, max_of):
        with pytest.raises(InputError, match=r"^empty word has no extremal factor$"):
            extremal("", Order("ab"))


def _min_factor_by_scan(w, k, order):
    return min(factors(w, k), key=order.key)


def _max_factor_by_scan(w, k, order):
    return max(factors(w, k), key=order.key)


def _extremal_by_definition(w, order, extremal_factor):
    # Literal reading: the largest k whose shorter extremal factors all stack
    # up as prefixes of the length-k one (the least factors for min(w), the
    # greatest for its dual max(w)), each found by scanning the window set.
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
        assert min_of(w, order) == _extremal_by_definition(w, order, _min_factor_by_scan)
        assert max_of(w, order) == _extremal_by_definition(w, order, _max_factor_by_scan)


def test_extremes_match_scans_exhaustive():
    # Every word of length 1-7 over abc (3 279 words), under every order on
    # its letters (16 689 pairs); the fixed-length extremes at every k.
    for n in range(1, 8):
        for w in map("".join, product("abc", repeat=n)):
            for order in all_orders(alph(w)):
                assert min_of(w, order) == _extremal_by_definition(w, order, _min_factor_by_scan)
                assert max_of(w, order) == _extremal_by_definition(w, order, _max_factor_by_scan)
                for k in range(1, n + 1):
                    assert min_factor(w, k, order) == _min_factor_by_scan(w, k, order)
                    assert max_factor(w, k, order) == _max_factor_by_scan(w, k, order)


def _duval_extremes_match(w, order):
    reverse = Order(order.letters[::-1])
    return (
        w[_least_suffix_start_duval(order.key(w)) :] == min_of(w, order)
        and w[_least_suffix_start_duval(reverse.key(w)) :] == max_of(w, order)
    )


def test_duval_least_suffix_matches_min_of_and_max_of():
    # Every word of length 1-8 over abc under every order on its letters
    # (52 992 pairs), then long words: the run families that are quadratic
    # for the position-set loop, factors of standard words and random words.
    for n in range(1, 9):
        for w in map("".join, product("abc", repeat=n)):
            for order in all_orders(alph(w)):
                assert _duval_extremes_match(w, order), (w, order)
    rng = random.Random(23)
    long_words = []
    for m in (1, 2, 3, 17, 250, 1_500):
        a = "a" * m
        long_words += [a + "b", "ab" * m, a + "b" + a, "ba" + a + "b" + a + "ba"]
    for _ in range(20):
        letters = "abcd"[: rng.randint(2, 4)]
        directive = DirectiveSpec("", "".join(rng.choices(letters, k=rng.randint(2, 5))))
        t = directive.prefix(4_000)
        start = rng.randrange(2_000)
        long_words.append(t[start : start + rng.randint(1, 2_000)])
    for _ in range(20):
        letters = "abcd"[: rng.randint(2, 4)]
        long_words.append("".join(rng.choices(letters, k=rng.randint(1, 2_000))))
    for w in long_words:
        for order in all_orders(alph(w)):
            assert _duval_extremes_match(w, order), (len(w), order)


def test_fixed_length_extremes_hold_one_window_at_a_time():
    # A window set at k = 2 000 holds about 49 000 windows of 2 000 letters
    # (about 100 MB); one window at a time stays far below the bound.
    w = "".join(random.Random(0).choices("abcd", k=50_000))
    order = Order("abcd")
    tracemalloc.start()
    try:
        min_factor(w, 2_000, order)
        max_factor(w, 2_000, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_extremes_name_the_first_foreign_letter_under_the_given_order():
    with pytest.raises(InputError, match="^letter 'd' outside alphabet 'ab'$"):
        min_factor("dac", 1, Order("ab"))
    with pytest.raises(InputError, match="^letter 'd' outside alphabet 'ab'$"):
        max_factor("dac", 1, Order("ab"))
    with pytest.raises(InputError, match="^letter 'c' outside alphabet 'ab'$"):
        max_of("acd", Order("ab"))
    with pytest.raises(InputError, match=r"^k=5 out of range for \|w\|=3$"):
        max_factor("acd", 5, Order("ab"))


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
    assert reversal("abacaba") == "abacaba"
    assert reversal("") == ""
    assert reversal("ab") != "ab"


def test_factor_complexity_unary():
    assert factor_complexity("aaaa", 3) == [1, 1, 1]


def test_orders():
    assert Order("bac").min_letter == "b"
    assert Order("".join(sorted(alph("cba")))).letters == "abc"
    assert len(all_orders("abc")) == 6
    with pytest.raises(InputError):
        Order("aab")
    with pytest.raises(InputError):
        Order("abcdefghi")
