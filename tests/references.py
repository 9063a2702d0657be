"""Reference helpers for the tests: the paper's nested palindromic prefixes
u(i) and the words h(i), each a thin wrapper over a library path,
palindromic closure by a two-pointer scan of every suffix, an order-free
rule for the witness check, balance by counting windows, and the certifying
reduction that decides each full reading by a nested reduction.

Not a test module; the tests import it by name.
"""

from itertools import accumulate, islice
from operator import sub

from epiword import apply_morphism
from epiword.classify import RejectReason, _base_form, _parse_letter, _run_length
from epiword.generate import palindromic_prefix


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def palindromic_prefixes(d, count: int) -> list[str]:
    """The nested palindromic prefixes u(1) = empty, u(2), ..., u(count)."""
    return [palindromic_prefix(islice(d.letters(), i)) for i in range(count)]


def h_words(d, n: int) -> list[str]:
    """The words h(i) = mu(i)(x(i+1)) for i = 0..n-1.

    mu(i) composes psi over the first i directive letters; the product
    h(n-2)···h(1)h(0) rebuilds the palindromic prefix u(n).
    """
    xs = "".join(islice(d.letters(), n))
    return [apply_morphism(xs[:i], xs[i]) for i in range(len(xs))]


def pal_closure_two_pointer(w: str) -> str:
    """pal_closure by testing every suffix of w, longest first, with two
    pointers moving inwards; the first palindrome is the longest."""
    n = len(w)
    for i in range(n):
        lo, hi = i, n - 1
        while lo < hi and w[lo] == w[hi]:
            lo += 1
            hi -= 1
        if lo >= hi:
            return w + w[:i][::-1]
    return w


def witness_holds_order_free(w: str, u: str) -> bool:
    """check_witness(w, u) with no loop over orders, for |u| >= |w| - 1.

    At every position p, either w[p+1:] and u agree on their common length,
    or u's letter at their first mismatch is w[p]. Checked against
    check_witness in tests/test_classify.py; a Z-array would make it linear.
    """
    for p, c in enumerate(w):
        for x, y in zip(w[p + 1 :], u):
            if x != y:
                if y != c:
                    return False
                break
    return True


def balanced_by_windows(w: str) -> bool:
    """Balance by definition: same-length windows differ by <= 1 in b's."""
    prefix = list(accumulate((c == "b" for c in w), initial=0))
    for n in range(1, len(w)):
        counts = list(map(sub, prefix[n:], prefix))
        if max(counts) - min(counts) > 1:
            return False
    return True


def strip_runs(runs, parity: int, m: int, keep_final: bool = False):
    """The runs after m single psi_x steps, x's runs being those of the
    given parity: each run of x is m letters shorter, the first and final
    ones gone if they had at most m; with keep_final the final run, one of
    x, keeps its length (the full reading of its lone x blocks)."""
    letters, counts = runs
    counts = counts.copy()
    shorter = [c - m for c in counts[parity::2]]
    if keep_final:
        shorter[-1] += m
    counts[parity::2] = shorter
    # A run of x that is gone lets its neighbours meet; none gone, none merge.
    merged_letters, merged = [], []
    for c, k in zip(letters, counts):
        if k <= 0:
            continue
        if merged_letters and merged_letters[-1] == c:
            merged[-1] += k
        else:
            merged_letters.append(c)
            merged.append(k)
    return "".join(merged_letters), merged


def reduce_nested(runs, certify: bool = False):
    """classify._reduce with a nested reduction per full reading: without
    certify every step takes the trimmed reading; with certify a word ending
    in x takes a single step by the full reading, which keeps the final run
    of x whole, when reduce_nested accepts that reading, and the run step
    otherwise. Returns (reason, chain, base) as classify._reduce does."""
    chain = []
    reason = RejectReason.NO_SEPARATING_LETTER
    while (base := _base_form(runs)) is None:
        step = _parse_letter(runs)
        if step is None:
            return reason, chain, None
        reason = RejectReason.REDUCTION_FAILED
        x, parity = step
        if certify and runs[0][-1] == x:
            full = strip_runs(runs, parity, 1, keep_final=True)
            if reduce_nested(full)[0] is None:
                chain.append(x)
                runs = full
                continue
        m = _run_length(runs, x, parity)
        chain.append(x * m)
        runs = strip_runs(runs, parity, m)
    return None, chain, base
