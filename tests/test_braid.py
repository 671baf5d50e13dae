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
