"""Imaginary quadratic class groups via primitive binary quadratic forms.

Class groups are represented implicitly: reduced forms plus Gauss
composition.  Everything the cycle-counting pipeline needs is the class
number h, the genus number g, and the order of the class above a split
prime.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .ff import factor, kronecker_symbol

MAX_ABS_DISC = 10**8

SPLIT = "split"
RAMIFIED = "ramified"
INERT = "inert"


class Discriminant:
    """Negative discriminant with cached factorisation, fundamental part and conductor.

    |D| over MAX_ABS_DISC is refused before it is factored: every class-group
    function starts from a Discriminant, and trial division is sized for the cap.
    """

    __slots__ = ("value", "factors", "fundamental", "conductor")

    def __init__(self, value: int):
        if value >= 0:
            raise ValueError(f"discriminant must be negative, got {value}")
        if value % 4 not in (0, 1):
            raise ValueError(f"discriminant must be 0 or 1 mod 4, got {value}")
        if -value > MAX_ABS_DISC:
            raise ValueError(f"class_number(D={value}): |discriminant| {-value} "
                             f"exceeds cap {MAX_ABS_DISC}")
        self.value = value
        self.factors = factor(-value)
        squarefree = 1
        for q, e in self.factors.items():
            if e % 2 == 1:
                squarefree *= q
        d0 = -squarefree
        fundamental = d0 if d0 % 4 == 1 else 4 * d0
        conductor = isqrt(value // fundamental)
        if conductor * conductor * fundamental != value:
            raise AssertionError("conductor factorization failed")
        self.fundamental = fundamental
        self.conductor = conductor

    def __eq__(self, other):
        return isinstance(other, Discriminant) and self.value == other.value

    def __hash__(self):
        return hash(("Discriminant", self.value))

    def __repr__(self):
        return f"Discriminant({self.value})"


def _as_disc(D) -> Discriminant:
    return D if isinstance(D, Discriminant) else Discriminant(D)


class BinaryQuadraticForm:
    """Primitive positive definite form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if b * b - 4 * a * c >= 0 or a <= 0:
            raise ValueError(f"form ({a}, {b}, {c}) is not positive definite")
        if gcd(gcd(a, b), c) != 1:
            raise ValueError(f"form ({a}, {b}, {c}) is not primitive")
        self.a, self.b, self.c = a, b, c

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def inverse(self) -> "BinaryQuadraticForm":
        return reduce(BinaryQuadraticForm(self.a, -self.b, self.c))

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return (-a < b <= a <= c) and not (a == c and b < 0)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryQuadraticForm)
            and (self.a, self.b, self.c) == (other.a, other.b, other.c)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __iter__(self):
        yield self.a
        yield self.b
        yield self.c

    def __repr__(self):
        return f"({self.a}, {self.b}, {self.c})"


def principal_form(D) -> BinaryQuadraticForm:
    D = _as_disc(D).value
    k = D & 1
    return BinaryQuadraticForm(1, k, (k - D) // 4)


def reduce(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The unique reduced representative of the form's equivalence class."""
    a, b, c = form.a, form.b, form.c
    while True:
        if b > a or b <= -a:
            r = (a - b) // (2 * a)
            c = a * r * r + b * r + c
            b = b + 2 * r * a
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return BinaryQuadraticForm(a, b, c)


def _xgcd(a: int, b: int):
    """Returns (u, v, g) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t, old_r


def compose(f1: BinaryQuadraticForm, f2: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition of two primitive forms of equal discriminant, reduced."""
    D = f1.discriminant()
    if D != f2.discriminant():
        raise ValueError("composition requires equal discriminants")
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2
    m = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        u, _, d = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        u, v, d1 = _xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * m - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce(BinaryQuadraticForm(a3, b3, c3))


def _reduced_triples(D: int):
    """The primitive reduced forms (a, b, c) of discriminant D with b >= 0.

    Cohen, Alg. 5.3.5: a reduced form has b = D (mod 2), 3b^2 <= |D| and
    a*c = (b^2 - D)/4 with b <= a <= c, so a runs over the divisors of that
    quotient up to its square root.  (a, -b, c) is reduced as well exactly
    when 0 < b < a < c.
    """
    b = D & 1
    while 3 * b * b <= -D:
        q = (b * b - D) // 4
        for a in [a for a in range(max(b, 1), isqrt(q) + 1) if not q % a]:
            c = q // a
            if gcd(a, b, c) == 1:
                yield a, b, c
        b += 2


@lru_cache(maxsize=None)
def _reduced_forms(D: int) -> tuple:
    out = []
    for a, b, c in _reduced_triples(D):
        out.append((a, b, c))
        if 0 < b < a < c:
            out.append((a, -b, c))
    out.sort()
    return tuple(BinaryQuadraticForm(a, b, c) for a, b, c in out)


def reduced_forms(D) -> list[BinaryQuadraticForm]:
    """All primitive reduced forms of the discriminant, in (a, b) order."""
    D = _as_disc(D)
    return list(_reduced_forms(D.value))


@lru_cache(maxsize=None)
def _class_number(D: int) -> int:
    return sum(2 if 0 < b < a < c else 1 for a, b, c in _reduced_triples(D))


def class_number(D) -> int:
    """Class number h: the count of primitive reduced forms."""
    D = _as_disc(D)
    return _class_number(D.value)


def genus_number(D) -> int:
    """Number of genera g = 2^(mu - 1) from the assigned characters.

    mu counts the odd primes dividing D, plus 1 or 2 for the characters
    at 2 when D = -4n (Cox, Prop. 3.11 and Thm 3.15): none when n = 3
    (mod 4), two when 8 | n, one otherwise.
    """
    D = _as_disc(D)
    mu = sum(1 for q in D.factors if q != 2)
    if D.value % 4 == 0:
        n = -D.value // 4
        mu += 0 if n % 4 == 3 else 2 if n % 8 == 0 else 1
    g = 1 << (mu - 1)
    if _class_number(D.value) % g:
        raise AssertionError(f"genus number {g} does not divide h({D.value})")
    return g


def prime_form(D, q: int) -> BinaryQuadraticForm | None:
    """Reduced class of the prime ideal above q, or None if q is inert.

    Smallest b >= 0 with b^2 = D (mod 4q) fixes the representative.
    """
    D = _as_disc(D)
    if D.conductor % q == 0:
        raise ValueError(f"{q} divides the conductor of {D.value}")
    if kronecker_symbol(D.value, q) < 0:
        return None
    for b in range(0, 2 * q + 1):
        if (b * b - D.value) % (4 * q) == 0:
            return reduce(BinaryQuadraticForm(q, b, (b * b - D.value) // (4 * q)))
    raise AssertionError(f"no square root of {D.value} mod {4 * q}")  # pragma: no cover


def form_order(D, form: BinaryQuadraticForm) -> int:
    """Least k >= 1 with the k-fold composition principal; divides h."""
    D = _as_disc(D)
    if form.discriminant() != D.value:
        raise ValueError("form discriminant mismatch")
    one = principal_form(D)
    acc = reduce(form)
    k = 1
    while acc != one:
        acc = compose(acc, form)
        k += 1
    if class_number(D) % k:
        raise AssertionError("element order does not divide class number")
    return k


def splitting_type(D, q: int) -> str:
    """Behaviour of q in the order: split/ramified/inert via the fundamental part."""
    D = _as_disc(D)
    if D.conductor % q == 0:
        raise ValueError(f"{q} divides the conductor of {D.value}")
    k = kronecker_symbol(D.fundamental, q)
    return SPLIT if k == 1 else RAMIFIED if k == 0 else INERT
