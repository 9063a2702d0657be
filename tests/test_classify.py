import os
import random
import sys
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiword import (
    Certificate,
    DirectiveSpec,
    EpiskewSpec,
    EventuallyPeriodicSpec,
    InconclusiveError,
    InputError,
    Order,
    RejectReason,
    SturmianResult,
    Verdict,
    WideSenseResult,
    all_orders,
    alph,
    apply_morphism,
    check_fine_prefix,
    check_min_inequality,
    check_witness,
    factors,
    is_balanced,
    is_finite_episturmian,
    max_of,
    min_of,
    oracle_is_finite_episturmian,
    psi,
    psi_inverse,
    separating_letters,
    sturmian_test,
    wide_sense_check,
)
from epiword.generate import palindromic_prefix
from epiword.oracles import (
    _balanced_by_windows,
    _episturmian_reference,
    check_certificate,
    oracle_check_witness,
)
from references import witness_holds_order_free


def test_separating_letters():
    assert separating_letters("baabacababac") == {"a"}
    assert separating_letters("abab") == {"a", "b"}
    assert separating_letters("bcb") == {"b", "c"}
    assert separating_letters("b") == {"b"}
    assert separating_letters("aabb") == set()


def test_block_parse_succeeds_exactly_for_separating_letters():
    # The de-substitution step takes the least such letter, which it reads
    # off the run-length form: x's runs alternate with single other letters.
    for letters, max_len in (("ab", 12), ("abc", 7)):
        for n in range(2, max_len + 1):
            for tup in product(letters, repeat=n):
                w = "".join(tup)
                seps = separating_letters(w)
                for x in letters:
                    aligned = w if w[0] == x else x + w
                    assert (psi_inverse(x, aligned) is not None) == (x in seps), (w, x)


@pytest.mark.parametrize(
    "w, accepted",
    [
        ("baabacababac", True),
        ("ababaabaabab", True),
        ("aabababaabaab", False),
        ("aaabaaacaaa", True),  # needs the cut-block reading of a trailing letter
        ("a", True),
        ("aaaa", True),
        ("aabb", False),
    ],
)
def test_is_finite_episturmian(w, accepted):
    verdict = is_finite_episturmian(w)
    assert verdict.accepted == accepted
    assert (verdict.certificate is not None) == accepted
    if not accepted:
        assert verdict.reason in (
            RejectReason.NO_SEPARATING_LETTER,
            RejectReason.REDUCTION_FAILED,
        )


def test_rejection_reasons():
    assert is_finite_episturmian("aabb").reason is RejectReason.NO_SEPARATING_LETTER
    assert is_finite_episturmian("aabababaabaab").reason is RejectReason.REDUCTION_FAILED
    for letters, max_len in (("ab", 12), ("abc", 7)):
        for n in range(1, max_len + 1):
            for tup in product(letters, repeat=n):
                w = "".join(tup)
                verdict = is_finite_episturmian(w)
                if verdict.accepted:
                    continue
                expected = (
                    RejectReason.NO_SEPARATING_LETTER
                    if not separating_letters(w)
                    else RejectReason.REDUCTION_FAILED
                )
                assert verdict.reason is expected, w


def test_empty_word_rejected():
    with pytest.raises(InputError):
        is_finite_episturmian("")


@pytest.mark.parametrize(
    "check, args, message",
    [
        (oracle_is_finite_episturmian, ("",), "empty word"),
        (oracle_check_witness, ("abcdefghi", "a"), "alphabet larger than 8"),
        (check_witness, ("abcdefghi", "a"), "alphabet larger than 8"),
        (check_witness, ("ab", "cdefghi"), "alphabet larger than 8"),
    ],
)
def test_input_error_messages(check, args, message):
    with pytest.raises(InputError) as exc:
        check(*args)
    assert str(exc.value) == message


def test_certificate_paper_word():
    cert = is_finite_episturmian("baabacababac").certificate
    assert check_certificate("baabacababac", cert)
    assert cert.witness_u.startswith("aba")


def test_certificate_soundness_random():
    rng = random.Random(5)
    seen = 0
    while seen < 40:
        letters = "abc"[: rng.randint(2, 3)]
        w = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        verdict = is_finite_episturmian(w)
        if verdict.accepted:
            assert check_certificate(w, verdict.certificate)
            seen += 1


def test_accepted_words_have_accepted_factors():
    rng = random.Random(11)
    seen = 0
    while seen < 15:
        w = "".join(rng.choice("abc") for _ in range(rng.randint(2, 10)))
        if not is_finite_episturmian(w).accepted:
            continue
        seen += 1
        for n in range(1, len(w) + 1):
            for i in range(len(w) - n + 1):
                assert is_finite_episturmian(w[i : i + n]).accepted, (w, w[i : i + n])


def test_check_witness_paper_values():
    assert check_witness("baabacababac", "abacaaaaaa") is True
    assert check_witness("baabacababac", "baaaaaaaaa") is False
    assert check_witness("a", "") is True
    assert check_witness("a", "zzz") is True


def test_check_witness_too_short():
    with pytest.raises(InputError):
        check_witness("baabacababac", "abac")


def _witness_outcome(check, w, u):
    try:
        return check(w, u)
    except Exception as exc:
        return type(exc), str(exc)


def _witness_pairs():
    # Every pair over abc with |w| <= 6 and |u| <= |w|, w up to a renaming
    # of its letters (first occurrences in a, b, c order): both checks range
    # over every order, so a renaming changes neither answer nor message.
    # The random pairs over 4 and 5 letters keep their letters as drawn.
    us = [["".join(t) for t in product("abc", repeat=n)] for n in range(7)]
    for n in range(7):
        for w in map("".join, product("abc", repeat=n)):
            if "".join(dict.fromkeys(w)) == "abc"[: len(set(w))]:
                yield from ((w, u) for k in range(n + 1) for u in us[k])
    rng = random.Random(31)
    for letters in ("abcd", "abcde"):
        for _ in range(400):
            t = DirectiveSpec("", "".join(rng.choice(letters) for _ in range(6))).prefix(48)
            n = rng.randint(1, 12)
            i = rng.randrange(len(t) - n)
            u = list(t[: rng.randint(max(0, n - 3), n + 1)])
            if u and rng.random() < 0.5:
                u[rng.randrange(len(u))] = rng.choice(letters)
            yield t[i : i + n], "".join(u)


def test_check_witness_matches_the_order_by_order_reference():
    # The reference builds an Order, a min_of and a lex_le per order; the
    # order-free rule is checked on the pairs long enough for it to apply.
    outcomes = Counter()
    for w, u in _witness_pairs():
        got = _witness_outcome(check_witness, w, u)
        assert got == _witness_outcome(oracle_check_witness, w, u), (w, u)
        outcomes[got if isinstance(got, bool) else "error"] += 1
        if w and len(u) >= len(w) - 1:
            assert witness_holds_order_free(w, u) is got, (w, u)
    assert min(outcomes[True], outcomes[False], outcomes["error"]) > 0, outcomes


def test_find_witness():
    # A witness is read off the accepted verdict's certificate.
    assert is_finite_episturmian("baabacababac").certificate.witness_u.startswith("aba")
    assert is_finite_episturmian("aabababaabaab").certificate is None
    unary = is_finite_episturmian("aaaa").certificate.witness_u
    assert set(unary) == {"a"}


def test_witness_first_letter_is_separating():
    rng = random.Random(3)
    seen = 0
    while seen < 25:
        letters = "abc"[: rng.randint(2, 3)]
        w = "".join(rng.choice(letters) for _ in range(rng.randint(2, 12)))
        if len(alph(w)) < 2:
            continue
        cert = is_finite_episturmian(w).certificate
        if cert is None:
            continue
        u = cert.witness_u
        assert u, w
        assert u[0] in separating_letters(w), (w, u)
        seen += 1


def test_is_balanced():
    assert is_balanced("ababaabaabab")
    assert not is_balanced("aabababaabaab")
    assert not is_balanced("aabb")
    assert is_balanced("a")
    with pytest.raises(InputError):
        is_balanced("abc")


def test_sturmian_test_paper_examples():
    good = sturmian_test("ababaabaabab")
    assert good.sturmian
    assert good.common_prefix == "abaaba"
    assert good.after_min == "b" and good.after_max == "a"

    bad = sturmian_test("aabababaabaab")
    assert not bad.sturmian
    assert bad.u == "aba"

    assert sturmian_test("ab").sturmian
    with pytest.raises(InputError):
        sturmian_test("aaa")


def test_sturmian_test_witness_is_genuine():
    order = Order("ab")
    for n in range(2, 13):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            if len(alph(w)) < 2:
                continue
            r = sturmian_test(w)
            assert (r.u is None) == r.sturmian, w
            if r.u is not None:
                assert min_of(w, order).startswith("a" + r.u + "a"), w
                assert max_of(w, order).startswith("b" + r.u + "b"), w


def _sturmian_by_extremes(w):
    # The formula on the full extremes: min(w), max(w), their common prefix.
    order = Order("ab")
    mt, xt = min_of(w, order)[1:], max_of(w, order)[1:]
    common = os.path.commonprefix((mt, xt))
    after_min = mt[len(common)] if len(common) < len(mt) else None
    after_max = xt[len(common)] if len(common) < len(xt) else None
    if after_min == "a" and after_max == "b":
        return SturmianResult(False, common, common, after_min, after_max)
    return SturmianResult(True, None, common, after_min, after_max)


def test_sturmian_test_matches_full_extremes_exhaustive():
    count = 0
    for n in range(2, 15):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            if len(alph(w)) == 2:
                assert sturmian_test(w) == _sturmian_by_extremes(w), w
                count += 1
    assert count == 32738


def test_sturmian_test_matches_full_extremes_on_long_words():
    rng = random.Random(12)
    flip = {"a": "b", "b": "a"}
    words = []
    for _ in range(100):
        n = rng.randint(2, 600)
        words.append("".join(rng.choice("ab") for _ in range(n)))
        directive = "".join(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        standard = DirectiveSpec(directive, "ab").prefix(n)
        i = rng.randrange(n)
        words += [standard, standard[:i] + flip[standard[i]] + standard[i + 1 :]]
        x, y = rng.sample("ab", 2)
        words.append(
            "".join(x * rng.randint(1, 150) + y * rng.randint(1, 3) for _ in range(4))
        )
    assert len(words) == 400 and max(map(len, words)) <= 600
    for w in words:
        assert sturmian_test(w) == _sturmian_by_extremes(w), w


def test_balance_of_one_long_run_each_side_is_linear():
    # a^k b a^k: min(w) is the whole word and max(w) is b a^k, so the tails
    # a^(k-1) b a^k and a^k agree for k - 1 letters. Walking the position
    # sets of both extremes in lockstep was quadratic here (0.68 s at
    # k = 3 000, about 30 s at k = 20 000; 2-vCPU VM, Python 3.11.7).
    for k in range(1, 40):
        w = "a" * k + "b" + "a" * k
        assert sturmian_test(w) == _sturmian_by_extremes(w), k
    k = 20_000
    w = "a" * k + "b" + "a" * k
    start = time.perf_counter()
    result = sturmian_test(w)
    balanced = is_balanced(w)
    elapsed = time.perf_counter() - start
    assert result == SturmianResult(True, None, "a" * (k - 1), "b", "a")
    assert balanced
    assert elapsed < 0.5, elapsed


def test_binary_equivalence_exhaustive():
    for n in range(1, 12):
        for tup in product("ab", repeat=n):
            w = "".join(tup)
            balanced = _balanced_by_windows(w)
            assert is_balanced(w) == balanced, w
            assert is_finite_episturmian(w).accepted == balanced, w
            if len(alph(w)) == 2:
                assert sturmian_test(w).sturmian == balanced, w


def test_ternary_matches_oracle_exhaustive():
    for n in range(1, 7):
        for tup in product("abc", repeat=n):
            w = "".join(tup)
            assert (
                is_finite_episturmian(w).accepted
                == oracle_is_finite_episturmian(w)
            ), w



@pytest.mark.parametrize(
    "letters, max_len, accepted", [("abcd", 8, 4220), ("abcde", 6, 2890)]
)
def test_decider_matches_discovery_table_past_three_letters(letters, max_len, accepted):
    # The ternary sweep's reference, one discovery table over all the
    # letters, on every word over four letters up to n = 8 and five up to
    # n = 6.
    reference = _episturmian_reference(letters, max_len)
    count = 0
    for n in range(1, max_len + 1):
        for tup in product(letters, repeat=n):
            w = "".join(tup)
            expected = reference(w)
            assert is_finite_episturmian(w).accepted == expected, w
            count += expected
    assert count == accepted


def test_long_binary_words_match_balance():
    # Binary finite episturmian words are the balanced ones, well past the
    # exhaustive sweep's n = 14: factors of Fibonacci with up to two letters
    # flipped, and factors of random standard words.
    rng = random.Random(10)
    fibonacci = DirectiveSpec("", "ab").prefix(2000)
    words = []
    for _ in range(125):
        n = rng.randint(1, 800)
        i = rng.randrange(len(fibonacci) - n)
        w = list(fibonacci[i : i + n])
        for j in rng.sample(range(n), min(n, rng.randint(0, 2))):
            w[j] = "b" if w[j] == "a" else "a"
        words.append("".join(w))
    for _ in range(125):
        pre = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        per = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        n = rng.randint(1, 800)
        t = DirectiveSpec(pre, per).prefix(2 * n)
        i = rng.randrange(n)
        words.append(t[i : i + n])
    balanced = 0
    for w in words:
        expected = _balanced_by_windows(w)
        assert is_finite_episturmian(w).accepted == is_balanced(w) == expected, w
        balanced += expected
    # 162 of the 250 words are balanced.
    assert 0 < balanced < len(words), balanced


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="abc", min_size=1, max_size=25),
    st.sampled_from("abc"),
    st.booleans(),
)
def test_extremal_factor_transfer_under_psi(w2, z, append):
    # min(psi_z(w')) rebuilds from min(w') exactly, with z stripped in front
    # when the minimum starts elsewhere and the trailing z carried over.
    if not append and w2.endswith(z):
        w2 = w2.rstrip(z)
        if not w2:
            return
    w = psi(z, w2) + (z if append else "")
    for order in all_orders(alph(w2) | {z}):
        image = psi(z, min_of(w2, order))
        m = min_of(w, order)
        expected = image if m.startswith(z) else image[1:]
        if append:
            expected += z
        assert m == expected


def test_extremal_transfer_worked_example():
    # w' = aa, z = b, w = psi_b(aa)·b = babab: the minimum abab is the
    # b-stripped image of aa with the trailing b carried over.
    assert psi("b", "aa") == "baba"
    assert min_of("babab", Order("ab")) == "abab"


def test_wide_sense_check():
    spec = EpiskewSpec("", "b", DirectiveSpec("", "a"), 2, 3)
    assert wide_sense_check(spec.prefix(20)).ok
    bad = wide_sense_check("aabababaabaab")
    assert not bad.ok
    assert bad.bad_factor is not None
    assert not is_finite_episturmian(bad.bad_factor).accepted
    assert wide_sense_check("a").ok
    assert wide_sense_check("").ok


def test_wide_sense_reports_shortest_bad_factor():
    bad = wide_sense_check("aabababaabaab")
    k = len(bad.bad_factor)
    for f in factors("aabababaabaab", k - 1):
        assert is_finite_episturmian(f).accepted


def test_wide_sense_and_deep_reject_stay_bounded():
    # a^402 b a^400 b is bad only as a whole: the scan must not test every
    # factor, and no step may touch the interpreter's recursion limit.
    limit = sys.getrecursionlimit()
    w = "a" * 402 + "b" + "a" * 400 + "b"
    start = time.perf_counter()
    result = wide_sense_check(w)
    elapsed = time.perf_counter() - start
    assert not result.ok and result.bad_factor == w
    assert elapsed < 5.0, elapsed
    assert sys.getrecursionlimit() == limit
    start = time.perf_counter()
    deep = is_finite_episturmian(apply_morphism("a" * 1500, "bbcc"))
    elapsed = time.perf_counter() - start
    assert deep.reason is RejectReason.REDUCTION_FAILED
    assert elapsed < 1.0, elapsed
    assert sys.getrecursionlimit() == limit


def test_run_heavy_words_stay_fast():
    # A run step undoes psi_a up to one letter short of emptying the
    # shortest interior run of a, and the next step takes that letter; the
    # certificate comes from the same pass. Re-deciding at every single
    # step took 10 s on the first word; stripping one letter per step is
    # quadratic on the second. On the third, a step from a word ending in a
    # keeps the full reading only when it is accepted and is a run step
    # otherwise; walking the run of a one letter at a time took 2.3 s.
    k = 400
    start = time.perf_counter()
    verdict = is_finite_episturmian(("a" * k + "b") * 3 + "a" * k)
    elapsed = time.perf_counter() - start
    assert verdict.accepted and verdict.certificate is not None
    assert elapsed < 2.0, elapsed
    k = 500_000
    start = time.perf_counter()
    verdict = is_finite_episturmian("a" * (k + 2) + "b" + "a" * k + "b")
    elapsed = time.perf_counter() - start
    assert verdict.reason is RejectReason.REDUCTION_FAILED
    assert elapsed < 5.0, elapsed
    start = time.perf_counter()
    verdict = is_finite_episturmian("a" * (k + 2) + "b" + "a" * k + "b" + "a")
    elapsed = time.perf_counter() - start
    assert verdict.reason is RejectReason.REDUCTION_FAILED
    assert elapsed < 1.0, elapsed


def _single_step_base_form(w):
    letters = sorted(set(w))
    if len(letters) == 1:
        return (w[0], None, len(w), 0)
    if len(letters) == 2:
        for y in letters:
            if w.count(y) == 1:
                x = letters[0] if y == letters[1] else letters[1]
                p = w.index(y)
                return (x, y, p, len(w) - p - 1)
    return None


def _single_step(w):
    for x in sorted(set(w)):
        r = psi_inverse(x, w if w[0] == x else x + w)
        if r is not None:
            return x, r
    return None


def _single_step_reason(w):
    reason = RejectReason.NO_SEPARATING_LETTER
    while _single_step_base_form(w) is None:
        step = _single_step(w)
        if step is None:
            return reason
        x, r = step
        w = r[:-1] if w.endswith(x) else r
        reason = RejectReason.REDUCTION_FAILED
    return None


def _single_step_verdict(w):
    # The decider one letter at a time: decide, then rebuild the chain,
    # re-deciding the full reading at each step from a word ending in x.
    reason = _single_step_reason(w)
    if reason is not None:
        return Verdict(False, None, reason)
    chain = []
    cur = w
    while (base := _single_step_base_form(cur)) is None:
        x, r = _single_step(cur)
        chain.append(x)
        cur = r if not cur.endswith(x) or _single_step_reason(r) is None else r[:-1]
    x, y, p, q = base
    tail = x * p if y is None else x * max(p, q) + y
    directive = DirectiveSpec("".join(chain) + tail, x)
    for i in range(len(directive.preperiod) + 1):
        generated = palindromic_prefix(directive.preperiod[:i])
        if (occurrence := generated.find(w)) >= 0:
            break
    cert = Certificate("".join(chain), cur, directive, occurrence, generated[: len(w)])
    if not check_witness(w, cert.witness_u):
        return Verdict(False, None, RejectReason.WITNESS_CHECK_FAILED)
    return Verdict(True, cert, None)


def _assert_same_verdicts(words):
    accepted = 0
    for w in words:
        got = is_finite_episturmian(w).to_json_dict()
        assert got == _single_step_verdict(w).to_json_dict(), w
        accepted += got["accepted"]
    return accepted


def test_run_steps_match_single_steps_on_run_families():
    # The single-step reference is cubic here; every k up to 40, then a
    # sample up to 120 (tests/test_golden.py pins every k up to 200).
    words = []
    for k in [*range(1, 41), *range(50, 121, 10)]:
        for a, b in (("a", "b"), ("b", "a")):
            words.append((a * k + b) * 3 + a * k)
    for k in range(1, 121):
        for a, b in (("a", "b"), ("b", "a")):
            words.append(a * (k + 2) + b + a * k + b)
    assert _assert_same_verdicts(words) == 96


def test_run_steps_match_single_steps_on_psi_images():
    rng = random.Random(23)
    words = []
    for _ in range(400):
        letters = "abcd"[: rng.randint(2, 4)]
        core = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
        morphism = "".join(
            rng.choice(letters) * rng.randint(1, 4) for _ in range(rng.randint(1, 4))
        )
        w = apply_morphism(morphism, core)
        i = rng.randrange(len(w))
        words += [w, w[i : i + rng.randint(1, 60)]]
    # Both verdicts occur: 659 of the 800 words are accepted.
    assert 0 < _assert_same_verdicts(words) < len(words)


def test_run_steps_match_single_steps_on_standard_factors():
    # Factors of standard words directed by chains of random permutations.
    # The decider reads its certificate off the last palindromic prefix of
    # the embedding, the reference off the first that holds the word.
    rng = random.Random(29)
    words = []
    for _ in range(300):
        letters = "abcd"[: rng.randint(2, 4)]
        chain = "".join("".join(rng.sample(letters, len(letters))) for _ in range(8))
        n = rng.randint(2, 80)
        t = DirectiveSpec("", chain).prefix(3 * n)
        i = rng.randrange(2 * n)
        words.append(t[i : i + n])
    assert _assert_same_verdicts(words) == len(words)
    early = 0
    for w in words:
        directive = is_finite_episturmian(w).certificate.embedding_directive
        # The prefixes are nested: w lies in the one before the last
        # exactly when the first that holds it is not the last.
        early += w in palindromic_prefix(directive.preperiod[:-1])
    # The first prefix that holds the word comes before the last one for
    # 90 of the 300 words.
    assert early > 0


def test_is_balanced_stays_fast_on_long_words():
    # 10^4 letters each within 2 s; the window count takes minutes here.
    rng = random.Random(6)
    fibonacci = DirectiveSpec("", "ab").prefix(10**4)
    directed = DirectiveSpec("".join(rng.choice("ab") for _ in range(60))).prefix(10**4)
    flipped = fibonacci[:5000] + {"a": "b", "b": "a"}[fibonacci[5000]] + fibonacci[5001:]
    # Building min(w) and max(w) in full is quadratic on the last three,
    # which took seconds that way; their tails disagree within two letters.
    cases = (
        (fibonacci, True),
        (directed, True),
        (flipped, False),
        ("bb" + "a" * 10**4, False),
        ("a" * 10**4 + "bb", False),
        ("ab" * 5000 + "a", True),
    )
    for w, expected in cases:
        assert len(w) >= 10**4 and alph(w) == {"a", "b"}
        start = time.perf_counter()
        assert is_balanced(w) is expected
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, elapsed


def test_wide_sense_matches_brute_force_exhaustive():
    accepted = {}

    def brute_force(w):
        # Shortest, then leftmost, factor that the decider rejects.
        for n in range(1, len(w) + 1):
            for i in range(len(w) - n + 1):
                f = w[i : i + n]
                if f not in accepted:
                    accepted[f] = is_finite_episturmian(f).accepted
                if not accepted[f]:
                    return f
        return None

    for letters, max_len in (("ab", 12), ("abc", 7)):
        for n in range(1, max_len + 1):
            for tup in product(letters, repeat=n):
                w = "".join(tup)
                bad = brute_force(w)
                assert wide_sense_check(w) == WideSenseResult(bad is None, bad), w


def test_check_min_inequality():
    assert check_min_inequality(DirectiveSpec("", "ab"), 10)
    assert check_min_inequality(DirectiveSpec("a", "b"), 5)
    assert check_min_inequality(DirectiveSpec("", "a"), 3)
    assert check_min_inequality(DirectiveSpec("", "abc"), 20)


def test_check_fine_prefix():
    assert check_fine_prefix(DirectiveSpec("", "abc"), 12)
    assert not check_fine_prefix(DirectiveSpec("b", "a"), 8)
    assert check_fine_prefix(EventuallyPeriodicSpec("b", "a"), 6)
    with pytest.raises(InputError):
        check_fine_prefix(DirectiveSpec("", "a"), 5)


def test_fine_for_strict_episkew():
    spec = EpiskewSpec("", "c", DirectiveSpec("", "ab"), 2, 1)
    assert check_fine_prefix(spec, 12)


def _seeded_fine_sources(rng, n):
    """n directive, skew and episkew sources each over at most four letters,
    some holding letters that only a long preperiod or the head has."""

    def word(lo, hi, letters):
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    for _ in range(n):
        late = rng.choice(["", "a" * 100 + "b"])
        yield DirectiveSpec(word(0, 3, "abcd") + late, word(1, 3, "abc"))
        yield EventuallyPeriodicSpec(word(1, 6, "abcd"), word(1, 3, "ab"))
        p = rng.randint(0, 4)
        inner = DirectiveSpec(word(0, 2, "ab"), word(1, 3, "ab"))
        yield EpiskewSpec(word(0, 2, "abcd"), "c", inner, p, rng.randint(1, p + 1))


def test_window_holds_every_factor():
    # The window prefix has every length-k factor of a reference prefix many
    # times longer, so each order's least window is that of the infinite
    # word, and it starts with the order's least letter.
    rng = random.Random(23)
    sources = [*_seeded_fine_sources(random.Random(19), 80)]
    for _ in range(40):
        # Five-letter directives; in half of them e occurs only in the
        # preperiod, one of them 100 letters in.
        pre, letters = "".join(rng.choices("abcde", k=rng.randint(0, 3))), "abcde"
        if rng.random() < 0.5:
            pre, letters = pre + "a" * 100 + "e", "abcd"
        period = "".join(rng.sample(letters, len(letters))) + rng.choice(["", "ab"])
        sources.append(DirectiveSpec(pre, period))
    for source in sources:
        for k in rng.sample((1, 2, 5, 13, 40, 200), 2):
            window = source.window(k)
            prefix = source.prefix(window)
            reference = source.prefix(16 * window + 4000)
            windows = factors(prefix, k)
            assert windows == factors(reference, k), (source, k)
            for order in all_orders(alph(prefix)):
                assert min(windows, key=order.key)[0] == order.min_letter, (source, k, order)


def test_prefix_checks_report_inconclusive_on_tiny_budget(monkeypatch):
    import epiword.classify as classify

    monkeypatch.setattr(classify, "STABILITY_BUDGET", 32)
    # *abc at k = 12 has a 95-letter window; past the budget, a 50-letter
    # cutoff needs no window to know it is longer.
    message = "^length-12 factors need a 95-letter window past the 32-letter budget$"
    with pytest.raises(InconclusiveError, match=message):
        check_fine_prefix(DirectiveSpec("", "abc"), 12)
    message = "^length-50 factors need a window past the 32-letter budget$"
    with pytest.raises(InconclusiveError, match=message):
        check_min_inequality(DirectiveSpec("", "ab"), 50)
    # k is checked before the budget: a zero cutoff is bad input, not inconclusive.
    with pytest.raises(InputError, match="k must be positive"):
        check_fine_prefix(DirectiveSpec("", "abc"), 0)
    with pytest.raises(InputError, match="k must be positive"):
        check_min_inequality(DirectiveSpec("", "ab"), 0)


def test_window_past_any_budget_stops_counting():
    # c first occurs after 10^5 letters of ab, by when the window count
    # would have 69 427 bits; it stops at 2^64 letters, where the message
    # names no size.
    late = DirectiveSpec("ab" * 50000 + "c", "c")
    assert late.window(30) >= 2**64
    message = "^length-30 factors need a window past the 65536-letter budget$"
    for source in (late, EpiskewSpec("a", "d", late, 0, 1)):
        start = time.perf_counter()
        with pytest.raises(InconclusiveError, match=message):
            check_fine_prefix(source, 30)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, (source, elapsed)


def test_witness_inequality_survives_extension():
    # Once a·u stays below every min(w), appending anything to u keeps it so.
    rng = random.Random(17)
    seen = 0
    while seen < 20:
        letters = "abc"[: rng.randint(2, 3)]
        w = "".join(rng.choice(letters) for _ in range(rng.randint(2, 10)))
        cert = is_finite_episturmian(w).certificate
        if cert is None:
            continue
        u = cert.witness_u
        tail = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        assert check_witness(w, u + tail), (w, u, tail)
        seen += 1
