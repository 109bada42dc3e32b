"""Finite additive sets: interval boxes in the integer lattice and finite abelian groups.

Elements are plain tuples of ints (coordinate vectors).  Group families reduce
coordinates modulo per-coordinate moduli; the interval family lives in the
ambient lattice Z^d, so its addition is unreduced and may leave the box.

Each AdditiveSetSpec decides its shape once, at construction: radixes,
row-major strides, cardinality and coordinate origin, which every other
module reads rather than re-deriving.  This module also owns the element
codec and the ambient addition: canonical_index and element_at read
coordinates row-major in spec.radixes from spec.origin (1 in a box, 0 in a
group), add(spec, x, r, times) forms x + times * r, and step_classes lists
the steps that carry progressions of 3 or more terms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import CapExceeded

# Specs whose cardinality exceeds this are rejected at construction so that
# index arithmetic stays comfortably inside machine-word range.
MAX_CARDINALITY = 10**7
# Every coordinate of more than one value at least doubles |A|, so no set
# within the cap has more coordinates than this, bar the one-point interval:1,d.
MAX_DIMENSION = MAX_CARDINALITY.bit_length()

INTERVAL = "interval"
CYCLIC = "cyclic"
ABELIAN = "abelian"
ELEMENTARY = "elementary"

Element = tuple


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def totient(m: int) -> int:
    """Number of integers in [1, m] coprime to m."""
    if m < 1:
        raise ValueError("totient requires m >= 1")
    result = m
    for p in factorize(m):
        result -= result // p
    return result


def divisors(m: int) -> list[int]:
    """Sorted list of the positive divisors of m."""
    divs = [1]
    for p, e in factorize(m).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def normalize_invariant_factors(factors) -> tuple[int, ...]:
    """Rewrite a product of cyclic factors as a divisibility chain n_1 | n_2 | ... | n_d.

    Each prime's powers are redistributed greedily, largest powers into the
    last factor, so the output chain presents the same group.
    """
    facs = list(factors)
    if not facs:
        raise ValueError("at least one factor required")
    if any(f < 2 for f in facs):
        raise ValueError("factors must be >= 2")
    by_prime: dict[int, list[int]] = {}
    for f in facs:
        for p, e in factorize(f).items():
            by_prime.setdefault(p, []).append(e)
    depth = max(len(v) for v in by_prime.values())
    chain = [1] * depth
    for p, exps in by_prime.items():
        padded = [0] * (depth - len(exps)) + sorted(exps)
        for i, e in enumerate(padded):
            chain[i] *= p**e
    assert all(c >= 2 for c in chain)
    return tuple(chain)


class Frozen:
    """Base of apseq's value classes.  Each subclass keeps its fields in
    __slots__ and writes them once, in __init__, with object.__setattr__;
    any later assignment or deletion raises AttributeError.

    Equality, hash, repr and pickling read the fields named in _fields,
    which defaults to __slots__ (a class with derived slots lists only its
    compared fields): two values are equal when their classes are the same
    and their field tuples are equal, the hash is that of the field tuple,
    the repr is Name(field=value, ...), and a value pickles as its class
    called on the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        get = operator.attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            one = get
            get = lambda obj: (one(obj),)
        # called as self._values(self): staticmethod keeps the lambda from
        # binding, and an attrgetter, which never binds, reads the same
        cls._values = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._values  # the same for both: the classes are the same
        return get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__name__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


class AdditiveSetSpec(Frozen):
    """Description of the finite additive set under study.

    family: one of INTERVAL ([1,n]^d in Z^d), CYCLIC (Z/nZ), ABELIAN
    (Z/n_1 x ... x Z/n_d with n_1 | n_2 | ... | n_d), ELEMENTARY ((Z/pZ)^d).

    The constructor decides the set's shape once, and every module reads
    it: radixes (the values each coordinate takes), strides (the row-major
    weight of each coordinate), cardinality (|A|) and origin (the least
    coordinate: 1 in a box, 0 in a group).  A set with more than
    MAX_DIMENSION coordinates or MAX_CARDINALITY elements raises
    CapExceeded before its size is computed in full, and one with a
    number above MAX_CARDINALITY before any other check.  Equality, hash,
    repr and pickling read only family, n, d, p and factors; the hash is
    kept, as every lru_cache keyed by a spec hashes it per call.
    """

    __slots__ = (
        "family", "n", "d", "p", "factors",
        "radixes", "strides", "cardinality", "origin", "_hash",
    )
    _fields = ("family", "n", "d", "p", "factors")

    def __init__(
        self, family: str, n: int = 0, d: int = 1, p: int = 0, factors: tuple[int, ...] = ()
    ):
        factors = tuple(factors)
        _set(self, "family", family)
        _set(self, "n", n)
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "factors", factors)
        if d > MAX_DIMENSION:  # before (n,) * d is built
            raise CapExceeded(f"{self} exceeds the cap of {MAX_DIMENSION} coordinates")
        # a set with a side, prime or factor above the cap has more elements;
        # refused before any check that would factor or multiply it
        if max(n, p, *factors) > MAX_CARDINALITY:
            raise CapExceeded(f"{self} exceeds the cap |A| <= {MAX_CARDINALITY}")
        origin = 0
        if family == INTERVAL:
            if n < 1 or d < 1:
                raise ValueError("interval box requires n >= 1 and d >= 1")
            radixes = (n,) * d
            origin = 1
        elif family == CYCLIC:
            if n < 1:
                raise ValueError("cyclic group requires n >= 1")
            radixes = (n,)
        elif family == ABELIAN:
            if not factors:
                raise ValueError("abelian group requires at least one factor")
            if any(f < 2 for f in factors):
                raise ValueError("invariant factors must be >= 2")
            for a, b in zip(factors, factors[1:]):
                if b % a != 0:
                    raise ValueError(
                        "factors must form a divisibility chain; "
                        "use normalize_invariant_factors first"
                    )
            radixes = factors
        elif family == ELEMENTARY:
            if p < 2 or factorize(p) != {p: 1}:
                raise ValueError(f"{p} is not prime")
            if d < 1:
                raise ValueError("elementary p-group requires d >= 1")
            radixes = (p,) * d
        else:
            raise ValueError(f"unknown family {family!r}")
        cardinality = 1
        for m in radixes:
            cardinality *= m
            if cardinality > MAX_CARDINALITY:
                raise CapExceeded(f"{self} exceeds the cap |A| <= {MAX_CARDINALITY}")
        strides = tuple(itertools.accumulate(radixes[:0:-1], operator.mul, initial=1))
        _set(self, "radixes", radixes)
        _set(self, "strides", strides[::-1])
        _set(self, "cardinality", cardinality)
        _set(self, "origin", origin)
        _set(self, "_hash", Frozen.__hash__(self))

    def __hash__(self) -> int:
        # the hash kept at construction: every lru_cache keyed by a spec
        # hashes it per call.  A pickled spec is rebuilt by the constructor,
        # so a kept hash never crosses processes.
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.radixes)

    @property
    def moduli(self) -> tuple[int, ...]:
        """Per-coordinate modulus of a group family: its radixes."""
        if not self.is_group:
            raise ValueError("interval boxes have no modulus")
        return self.radixes

    @property
    def is_group(self) -> bool:
        return self.family != INTERVAL

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant-factor chain of a group family (its moduli, which form
        a divisibility chain); () for the trivial group."""
        return self.moduli if self.cardinality > 1 else ()

    @property
    def exponent(self) -> int:
        """Largest element order (last invariant factor); 1 for the trivial group."""
        return self.moduli[-1]

    def __str__(self) -> str:
        n, d, p = _shown(self.n), _shown(self.d), _shown(self.p)
        if self.family == INTERVAL:
            return f"interval:{n}" if self.d == 1 else f"interval:{n},{d}"
        if self.family == CYCLIC:
            return f"cyclic:{n}"
        if self.family == ABELIAN:
            return "abelian:" + "x".join(map(_shown, self.factors))
        return f"elementary:{p}^{d}"


def _shown(x: int) -> str:
    """x in decimal, or by its digit count past 20 digits: str() refuses an
    int of more than 4,300 digits, and a cap message should stay short."""
    if abs(x) < 10**20:
        return str(x)
    digits = int(math.log10(abs(x)))  # the count, or one under it
    while 10**digits <= abs(x):
        digits += 1
    return f"{'-' if x < 0 else ''}<{digits} digits>"


def interval_box(n: int, d: int = 1) -> AdditiveSetSpec:
    return AdditiveSetSpec(INTERVAL, n=n, d=d)


def cyclic(n: int) -> AdditiveSetSpec:
    return AdditiveSetSpec(CYCLIC, n=n)


def abelian(*factors: int) -> AdditiveSetSpec:
    return AdditiveSetSpec(ABELIAN, factors=tuple(factors))


def elementary(p: int, d: int = 1) -> AdditiveSetSpec:
    return AdditiveSetSpec(ELEMENTARY, p=p, d=d)


def parse_set_spec(text: str) -> AdditiveSetSpec:
    """Parse compact CLI spec strings.

    Grammar: interval:n[,d] | cyclic:n | abelian:n1xn2x... | elementary:p^d
    """
    head, sep, tail = text.strip().partition(":")
    if not sep or not tail:
        raise ValueError(f"malformed set spec {_clip(text)}")
    try:
        if head == INTERVAL:
            parts = [_number(s) for s in tail.split(",")]
            if len(parts) == 1:
                return interval_box(parts[0])
            if len(parts) == 2:
                return interval_box(parts[0], parts[1])
            raise ValueError
        if head == CYCLIC:
            return cyclic(_number(tail))
        if head == ABELIAN:
            return abelian(*[_number(s) for s in tail.split("x")])
        if head == ELEMENTARY:
            p_str, sep2, d_str = tail.partition("^")
            return elementary(_number(p_str), _number(d_str) if sep2 else 1)
    except ValueError as exc:
        reason = str(exc)  # int() repeats up to 200 characters of its input
        if len(reason) > 60:
            reason = reason[:60] + "..."
        raise ValueError(f"malformed set spec {_clip(text)}: {reason}") from None
    raise ValueError(f"unknown set family in {_clip(text)}")


def _clip(text: str, width: int = 40) -> str:
    """repr(text), or for a longer text the repr of its first width
    characters and its length: no message repeats a long input whole."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def _number(field: str) -> int:
    """int(field), but a run of more than 20 digits reads as 10**(digits - 1):
    a number of as many digits, which the spec shows by that count and its
    size check refuses, where int() would call a run past 4,300 digits
    malformed."""
    digits = field.strip().lstrip("0")
    if len(digits) > 20 and digits.isdecimal():
        return 10 ** (len(digits) - 1)
    return int(field)


def identity(spec: AdditiveSetSpec) -> Element:
    """Identity of the ambient group (the lattice origin for interval boxes)."""
    return (0,) * spec.dimension


def is_valid_element(spec: AdditiveSetSpec, x) -> bool:
    if len(x) != spec.dimension:
        return False
    return all(0 <= c - spec.origin < m for c, m in zip(x, spec.radixes))


def check_element(spec: AdditiveSetSpec, x) -> None:
    if len(x) != spec.dimension:
        raise ValueError(
            f"dimension mismatch: element {x} vs dimension {spec.dimension}"
        )
    if not is_valid_element(spec, x):
        raise ValueError(f"element {x} out of range for {spec}")


def element_order(spec: AdditiveSetSpec, x: Element) -> int:
    """Least positive m with m*x = 0; rejected for interval boxes."""
    if spec.family == INTERVAL:
        raise ValueError("order is infinite for nonzero lattice vectors")
    check_element(spec, x)
    order = 1
    for a, m in zip(x, spec.moduli):
        order = math.lcm(order, m // math.gcd(a, m))
    return order


@functools.lru_cache(maxsize=None)
def _half_units(m: int) -> tuple[int, ...]:
    """The units u < m / 2 of Z/mZ."""
    return tuple(u for u in range(1, (m + 1) // 2) if math.gcd(u, m) == 1)


def step_classes(spec: AdditiveSetSpec) -> list[tuple[int, Element, tuple[int, ...]]]:
    """The steps that carry progressions of 3 or more terms, as (bound, v,
    units) triples in the order of v: the steps u * v, u in units, are one
    of each pair {w, -w}, and bound is the most terms along any of them.  A
    group has one per cyclic subgroup <v> of order m >= 3, v its generator
    of least index, units the units below m / 2 (so 2 * len(units) = phi(m))
    and bound m.  A box has (1 + (n - 1) // max|v_i|, v, (1,)) for each
    v > 0 (first nonzero coordinate positive) with every |v_i| <= (n - 1) / 2.
    """
    if spec.family == INTERVAL:
        half, origin = (spec.n - 1) // 2, (0,) * spec.d
        steps = itertools.product(range(-half, half + 1), repeat=spec.d)
        return [(1 + (spec.n - 1) // max(map(abs, v)), v, (1,)) for v in steps if v > origin]
    done, classes = bytearray(spec.cardinality), []
    for step_idx in range(1, spec.cardinality):
        if done[step_idx]:
            continue
        v = element_at(spec, step_idx)
        m = element_order(spec, v)
        if m < 3:
            continue
        units = _half_units(m)
        classes.append((m, v, units))
        # the generators u * v and -(u * v) of <v> need no triple of their own
        digits = list(zip(v, spec.moduli, spec.strides))
        for u in units:
            for t in (u, m - u):
                done[sum(t * a % mc * w for a, mc, w in digits)] = 1
    return classes


def canonical_index(spec: AdditiveSetSpec, x: Element) -> int:
    """Row-major mixed-radix index of an element, in [0, |A|-1]."""
    check_element(spec, x)
    idx = 0
    for c, m in zip(x, spec.radixes):
        idx = idx * m + c - spec.origin
    return idx


def element_at(spec: AdditiveSetSpec, i: int) -> Element:
    """Inverse of canonical_index."""
    if not 0 <= i < spec.cardinality:
        raise ValueError(f"index {i} out of range for {spec}")
    coords = []
    for m in reversed(spec.radixes):
        i, c = divmod(i, m)
        coords.append(c + spec.origin)
    return tuple(reversed(coords))


def add(spec: AdditiveSetSpec, x: Element, r: Element, times: int = 1) -> Element:
    """x + times * r in the ambient group: reduced modulo each coordinate's
    modulus in a group, unreduced in Z^d for a box (it may leave the box)."""
    if spec.family == INTERVAL:
        return tuple(a + times * b for a, b in zip(x, r))
    return tuple((a + times * b) % m for a, b, m in zip(x, r, spec.moduli))


def elements(spec: AdditiveSetSpec):
    """Iterate all elements in canonical-index order."""
    for i in range(spec.cardinality):
        yield element_at(spec, i)
