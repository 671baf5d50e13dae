import random

import pytest

from laceground.braid import BraidWord, format_braid_word, is_alternating, to_braid_word


@pytest.mark.parametrize("i", [0, 1, 2])
def test_cross_and_twist_generators(i):
    """Each action expands on its own, so i of them give i copies."""
    assert to_braid_word("C" * i).generators == ((1, +1),) * i
    assert to_braid_word("T" * i).generators == ((0, -1), (2, -1)) * i


def test_half_twists():
    assert to_braid_word("L").generators == ((0, -1),)
    assert to_braid_word("R").generators == ((2, -1),)


def test_empty_word():
    word = to_braid_word("")
    assert word.generators == ()
    assert is_alternating(word)


def test_ctpct_expansion():
    word = to_braid_word("CTpCT")
    assert word.generators == (
        (1, 1), (0, -1), (2, -1), (1, 1), (0, -1), (2, -1))
    assert word.pins == (3,)
    assert format_braid_word(word) == "s1 s0^-1 s2^-1 [pin] s1 s0^-1 s2^-1"


def test_unknown_action():
    with pytest.raises(ValueError):
        to_braid_word("CX")


def test_alternating_rejects_bad_word():
    assert not is_alternating(BraidWord(((1, -1),), ()))
    assert not is_alternating(BraidWord(((2, 1),), ()))


def test_random_sequences_always_alternate():
    rng = random.Random(20260811)
    alphabet = "CTLRp"
    for _ in range(2000):
        actions = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 21)))
        word = to_braid_word(actions)
        assert is_alternating(word)
        # strand span stays within the four threads of the interaction
        for pos, _ in word.generators:
            assert 0 <= pos <= 3


def test_a_long_word_is_formatted_in_one_pass():
    """The pins are counted once per word, not once per generator, so a
    word of 40,000 generators each followed by a pin formats at once."""
    word = to_braid_word("Cp" * 40000)
    assert format_braid_word(word) == " ".join(["s1", "[pin]"] * 40000)


@pytest.mark.parametrize("generators, pins, text", [
    (((1, 1), (0, -1)), (2, 0, 0, 1), "[pin] [pin] s1 [pin] s0^-1 [pin]"),  # unsorted, repeated
    (((1, 1), (0, -1)), (-1, 3, 100), "s1 s0^-1"),                        # out of range
    (((1, 1), (0, -1)), (1, -2, 1, 2, 7, 2), "s1 [pin] [pin] s0^-1 [pin] [pin]"),
    ((), (), "(empty)"),
    ((), (1, -1), "(empty)"),
    ((), (0, 0), "[pin] [pin]"),
])
def test_odd_pin_tuples(generators, pins, text):
    """A pin is shown once per time it is listed, before the generator at
    its index (or at the end for ``len(generators)``), in generator order;
    an index outside that range is not shown."""
    assert format_braid_word(BraidWord(generators, pins)) == text
