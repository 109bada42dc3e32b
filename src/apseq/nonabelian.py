"""Left and right arithmetic progressions in non-abelian groups, at desk
scale: dihedral groups and reduced words in the rank-2 free group.

A left progression is (a, ra, r^2 a, ...), a right progression (a, ar,
ar^2, ...); elementwise inversion exchanges the two notions.
"""

from __future__ import annotations

from .errors import CapExceeded
from .groups import Frozen

DIHEDRAL_ORDER_CAP = 200

_set = object.__setattr__


class DihedralElement(Frozen):
    """rotation^rot * flip^f in the dihedral group of order 2n, where the
    flip conjugates rotations to their inverses."""

    __slots__ = ("n", "rot", "flip")

    def __init__(self, n: int, rot: int, flip: int):
        if n < 1:
            raise ValueError("dihedral index n must be >= 1")
        _set(self, "n", n)
        _set(self, "rot", rot % n)
        _set(self, "flip", flip % 2)

    def __eq__(self, other):
        # field by field, without the tuples: the brute-force counts compare
        # elements in their innermost loop
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rot == other.rot and self.flip == other.flip and self.n == other.n

    # a class that defines __eq__ gets __hash__ = None unless it names one
    __hash__ = Frozen.__hash__

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("elements of different dihedral groups")
        rot = self.rot - other.rot if self.flip else self.rot + other.rot
        return DihedralElement(self.n, rot, self.flip ^ other.flip)

    def inverse(self) -> "DihedralElement":
        if self.flip:
            return self
        return DihedralElement(self.n, -self.rot, 0)

    def is_identity(self) -> bool:
        return self.rot == 0 and self.flip == 0


def dihedral_identity(n: int) -> DihedralElement:
    return DihedralElement(n, 0, 0)


def dihedral_elements(n: int) -> list[DihedralElement]:
    return [DihedralElement(n, r, f) for f in (0, 1) for r in range(n)]


def _free_reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for gen, exp in letters:
        if gen not in (1, 2) or exp not in (1, -1):
            raise ValueError(f"bad letter ({gen}, {exp})")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


class FreeWord(Frozen):
    """Reduced word over two generators; letters are (generator, +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        _set(self, "letters", _free_reduce(letters))

    @classmethod
    def generator(cls, gen: int, exp: int = 1) -> "FreeWord":
        return cls(((gen, 1),) * exp if exp >= 0 else ((gen, -1),) * (-exp))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters


def _inverse_of(x):
    if isinstance(x, (DihedralElement, FreeWord)):
        return x.inverse()
    raise TypeError(f"unsupported element type {type(x).__name__}")


def _check_same_group(seq) -> None:
    if len(seq) < 2:
        raise ValueError("sequence must have length >= 2")
    first = seq[0]
    for x in seq[1:]:
        if type(x) is not type(first):
            raise TypeError("mixed element types in sequence")
        if isinstance(x, DihedralElement) and x.n != first.n:
            raise ValueError("elements of different dihedral groups")


def _has_constant_ratio(seq, ratio) -> bool:
    _check_same_group(seq)
    first = ratio(seq[0], seq[1])
    return not first.is_identity() and all(
        ratio(x, y) == first for x, y in zip(seq[1:], seq[2:])
    )


def is_left_ap(seq) -> bool:
    """True iff seq[i+1] * seq[i]^-1 is constant and not the identity."""
    return _has_constant_ratio(seq, lambda x, y: y * _inverse_of(x))


def is_right_ap(seq) -> bool:
    """True iff seq[i]^-1 * seq[i+1] is constant and not the identity."""
    return _has_constant_ratio(seq, lambda x, y: _inverse_of(x) * y)


def invert_sequence(seq) -> list:
    """Elementwise inverse, order preserved; an involution."""
    return [_inverse_of(x) for x in seq]


def dihedral_progressions(n: int, k: int, left: bool):
    """Yield every injective k-term left (or right) progression in the
    dihedral group of order 2n, as a list of terms, by brute force."""
    order = 2 * n
    if order > DIHEDRAL_ORDER_CAP:
        raise CapExceeded(f"dihedral counts capped at group order {DIHEDRAL_ORDER_CAP}")
    if not 2 <= k <= order:
        raise ValueError(f"k must be in [2, {order}], got {k}")
    elems = dihedral_elements(n)
    for r in elems:
        if r.is_identity():
            continue
        for a in elems:
            terms = [a]
            cur = a
            for _ in range(k - 1):
                cur = (r * cur) if left else (cur * r)
                if cur in terms:
                    break
                terms.append(cur)
            else:
                yield terms


def left_ap_count(n: int, k: int) -> int:
    """Number of injective k-term left progressions in the dihedral group
    of order 2n, by brute force."""
    return sum(1 for _ in dihedral_progressions(n, k, left=True))


def right_ap_count(n: int, k: int) -> int:
    """Number of injective k-term right progressions in the dihedral group
    of order 2n, by brute force."""
    return sum(1 for _ in dihedral_progressions(n, k, left=False))
