"""Reference helpers for the tests: the paper's nested palindromic prefixes
u(i) and the words h(i), each a thin wrapper over a library path, an
order-free rule for the witness check, and balance by counting windows.

Not a test module; the tests import it by name.
"""

from itertools import accumulate, islice
from operator import sub

from epiword import apply_morphism
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
