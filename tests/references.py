"""Reference helpers for the tests: the paper's nested palindromic prefixes
u(i) and the words h(i), each a thin wrapper over a library path.

Not a test module; the tests import it by name.
"""

from itertools import islice

from epiword import apply_morphism
from epiword.generate import palindromic_walk


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def palindromic_prefixes(d, count: int) -> list[str]:
    """The nested palindromic prefixes u(1) = empty, u(2), ..., u(count)."""
    return list(islice(palindromic_walk(d.letters()), count))


def h_words(d, n: int) -> list[str]:
    """The words h(i) = mu(i)(x(i+1)) for i = 0..n-1.

    mu(i) composes psi over the first i directive letters; the product
    h(n-2)···h(1)h(0) rebuilds the palindromic prefix u(n).
    """
    xs = "".join(islice(d.letters(), n))
    return [apply_morphism(xs[:i], xs[i]) for i in range(len(xs))]
