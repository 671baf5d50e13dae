"""Translation of per-vertex action sequences into braid words.

Actions operate on two adjacent thread pairs, which hold the four strands
at positions 0..3. A cross puts the middle strand over its right
neighbour; a twist crosses each pair's strands under. In generator notation a
positive entry (p, +1) is strand p over p+1, negative is under. Every word
assembled from these actions keeps positive generators on odd positions and
negative ones on even positions, which is exactly the alternating-braid
pattern.
"""

from typing import NamedTuple


class BraidWord(NamedTuple):
    generators: tuple[tuple[int, int], ...]  # (strand position, sign)
    pins: tuple[int, ...]                    # indices into generators where a pin sits

    def __str__(self) -> str:
        return format_braid_word(self)


def to_braid_word(actions: str) -> BraidWord:
    """Expand an action string for the pairs at strands 0..3.

    C -> sigma_1; T -> sigma_0^-1 sigma_2^-1; L and R twist only the left
    or right pair; p marks a pin at its place in the word.
    """
    gens: list[tuple[int, int]] = []
    pins: list[int] = []
    for ch in actions:
        if ch == "C":
            gens.append((1, +1))
        elif ch == "T":
            gens.append((0, -1))
            gens.append((2, -1))
        elif ch == "L":
            gens.append((0, -1))
        elif ch == "R":
            gens.append((2, -1))
        elif ch == "p":
            pins.append(len(gens))
        else:
            raise ValueError(f"unknown action {ch!r}; expected one of C,T,L,R,p")
    return BraidWord(tuple(gens), tuple(pins))


def is_alternating(word: BraidWord) -> bool:
    """Positive generators only on odd strand positions, negative only on even."""
    for pos, sign in word.generators:
        if sign > 0 and pos % 2 == 0:
            return False
        if sign < 0 and pos % 2 == 1:
            return False
    return True


def format_braid_word(word: BraidWord) -> str:
    """Readable rendering, e.g. 's1 s0^-1 s2^-1 [pin]'."""
    # the pins before each generator and at the end, counted in one pass;
    # a pin outside 0..len(generators) is not shown
    n = len(word.generators)
    pins = [0] * (n + 1)
    for k in word.pins:
        if 0 <= k <= n:
            pins[k] += 1
    parts: list[str] = []
    for k, (pos, sign) in enumerate(word.generators):
        parts.extend(["[pin]"] * pins[k])
        parts.append(f"s{pos}" if sign > 0 else f"s{pos}^-1")
    parts.extend(["[pin]"] * pins[n])
    return " ".join(parts) if parts else "(empty)"
