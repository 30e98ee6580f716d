"""Seeded random A-elements with rational, h-graded coefficients for property tests.

property_examples(n) runs a test taking an ``rng`` argument on n seeded
``random.Random`` instances: drawn by hypothesis (derandomized, so runs
repeat) when it is installed, otherwise the seeds 0..n-1.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmzv.hpoly import HPoly
from qmzv.words import Element, a_words_of_degree

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None


def property_examples(n):
    def wrap(test):
        if given is None:
            return pytest.mark.parametrize("rng", [random.Random(seed) for seed in range(n)])(test)
        return settings(max_examples=n, deadline=None, derandomize=True)(
            given(rng=st.randoms(use_true_random=False))(test)
        )

    return wrap


def rational_coeff(rng):
    """A nonzero HPoly with small rational coefficients, often divisible by a power of h."""
    low = [0] * rng.choice((0, 0, 1, 2))
    middle = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) for _ in range(rng.randint(0, 1))]
    top = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))
    return HPoly(low + middle + [top])


def rational_element(rng, max_degree=3, terms=2, admissible=False):
    """An A-element of up to `terms` distinct words of degree 1..max_degree."""
    words = [w for m in range(1, max_degree + 1) for w in a_words_of_degree(m, admissible_only=admissible)]
    return Element([(w, rational_coeff(rng)) for w in rng.sample(words, min(terms, len(words)))])
