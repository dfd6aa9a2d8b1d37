"""Imaginary quadratic class groups via primitive binary quadratic forms.

Class groups are represented implicitly: reduced forms plus Gauss
composition.  A form a*x^2 + b*x*y + c*y^2 is the int triple (a, b, c); the
functions here derive every form from a checked Discriminant, so each one
they return is primitive and positive definite.  Everything the
cycle-counting pipeline needs is the class number h, the genus number g,
and the order of the class above a split prime.  A single class number
counts reduced forms only for the fundamental discriminant (Cohen,
Alg. 5.3.5) and lifts to a suborder by the conductor (Cox, Thm 7.24);
`form_counts` counts the reduced forms of a whole batch of discriminants,
primitive or not, in one sweep.
"""

from __future__ import annotations

from math import gcd, isqrt

from .ff import factor, kronecker_symbol

MAX_ABS_DISC = 10**8


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
            raise ValueError(f"Discriminant(D={value}): |discriminant| {-value} "
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


def as_discriminant(D) -> Discriminant:
    """D if it is a Discriminant already, else Discriminant(D), which checks and factors it."""
    return D if isinstance(D, Discriminant) else Discriminant(D)


def principal_form(D) -> tuple[int, int, int]:
    D = as_discriminant(D).value
    k = D & 1
    return 1, k, (k - D) // 4


def reduce(form: tuple[int, int, int]) -> tuple[int, int, int]:
    """The unique reduced representative of the form's equivalence class."""
    a, b, c = form
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
    return a, b, c


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


def compose(f1: tuple[int, int, int], f2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of two primitive forms of equal discriminant, reduced."""
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    (a1, b1, c1), (a2, b2, c2) = f1, f2
    D = b1 * b1 - 4 * a1 * c1
    if D != b2 * b2 - 4 * a2 * c2:
        raise ValueError("composition requires equal discriminants")
    s = (b1 + b2) // 2
    m = b2 - s
    y1, _, d = _xgcd(a2, a1)
    x2, v, d1 = _xgcd(s, d)
    y2 = -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * m - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce((a3, b3, c3))


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


def reduced_forms(D) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of the discriminant, in (a, b) order."""
    out = []
    for a, b, c in _reduced_triples(as_discriminant(D).value):
        out.append((a, b, c))
        if 0 < b < a < c:
            out.append((a, -b, c))
    out.sort()
    return out


def class_number(D) -> int:
    """Class number h: the count of primitive reduced forms.

    Forms are counted only for the fundamental part D_K, then lifted to D
    by `lift_class_number`.
    """
    D = as_discriminant(D)
    h = sum(2 if 0 < b < a < c else 1 for a, b, c in _reduced_triples(D.fundamental))
    return lift_class_number(D, h)


def lift_class_number(D, field_h: int) -> int:
    """h(D) from the class number field_h of its fundamental part D_K.

    Cox, Thm 7.24: for conductor f > 1, h(D) = h(D_K) * prod q^(e-1) (q - (D_K/q))
    over q^e || f, divided by the unit index 3 for D_K = -3, 2 for D_K = -4.
    """
    D = as_discriminant(D)
    if D.conductor == 1:
        return field_h
    dk = D.fundamental
    h = field_h
    rest = D.conductor  # divided by each q once, it ends as prod q^(e-1)
    for q in D.factors:
        if rest % q == 0:
            rest //= q
            h *= q - kronecker_symbol(dk, q)
    h *= rest
    units = {-3: 3, -4: 2}.get(dk, 1)
    if h % units:
        raise ArithmeticError(f"class_number(D={D.value}): lifted count {h} from D_K = {dk} "
                              f"is not divisible by the unit index {units}")
    return h // units


def form_counts(discs) -> dict[int, int]:
    """T(D) for each negative D in discs: the number of reduced forms of
    discriminant D, primitive or not, so T(D) = sum of h(D/f^2) over the f
    with D/f^2 a discriminant (0 when D is none).

    One pass over a <= sqrt(max|D|/3) serves the whole batch.  A reduced
    form (a, +-b, c) with 0 <= b <= a has b^2 = D (mod 4a) and c >= a, that
    is b^2 >= 4a^2 - |D|.  Each such root b counts for +b and -b, except
    b = 0, b = a and the tie c = a, where only +b is reduced.  So for each a
    the b in [0, a] are grouped by b^2 mod 4a: a D with |D| >= 4a^2 passes
    every root and adds the tally of its residue, and only a D with
    3a^2 <= |D| < 4a^2 reads its roots one by one.
    """
    batch = sorted(set(discs))  # largest |D| first
    counts = dict.fromkeys(batch, 0)
    a = 1
    while batch and 3 * a * a <= -batch[0]:
        four_a = 4 * a
        roots: dict[int, list[int]] = {}
        for b in range(a + 1):
            roots.setdefault(b * b % four_a, []).append(b)
        tally = {res: 2 * len(bs) - (bs[0] == 0) - (bs[-1] == a) for res, bs in roots.items()}
        for D in batch:
            if 3 * a * a > -D:
                break
            res = D % four_a
            if res not in roots:
                continue
            floor = four_a * a + D
            if floor <= 0:
                counts[D] += tally[res]
            else:
                counts[D] += sum(1 if b in (0, a) or b * b == floor else 2
                                 for b in roots[res] if b * b >= floor)
        a += 1
    return counts


def genus_number(D) -> int:
    """Number of genera g = 2^(mu - 1) from the assigned characters.

    mu counts the odd primes dividing D, plus 1 or 2 for the characters
    at 2 when D = -4n (Cox, Prop. 3.11 and Thm 3.15): none when n = 3
    (mod 4), two when 8 | n, one otherwise.
    """
    D = as_discriminant(D)
    mu = sum(1 for q in D.factors if q != 2)
    if D.value % 4 == 0:
        n = -D.value // 4
        mu += 0 if n % 4 == 3 else 2 if n % 8 == 0 else 1
    return 1 << (mu - 1)


def prime_form(D, q: int) -> tuple[int, int, int] | None:
    """Reduced class of the prime ideal above q, or None if q is inert.

    Smallest b >= 0 with b^2 = D (mod 4q) fixes the representative.
    """
    D = as_discriminant(D)
    if D.conductor % q == 0:
        raise ValueError(f"{q} divides the conductor of {D.value}")
    if kronecker_symbol(D.value, q) < 0:
        return None
    for b in range(0, 2 * q + 1):
        if (b * b - D.value) % (4 * q) == 0:
            return reduce((q, b, (b * b - D.value) // (4 * q)))
    raise AssertionError(f"no square root of {D.value} mod {4 * q}")  # pragma: no cover


def form_order(D, form: tuple[int, int, int]) -> int:
    """Least k >= 1 with the k-fold composition principal."""
    D = as_discriminant(D)
    a, b, c = form
    if b * b - 4 * a * c != D.value:
        raise ValueError("form discriminant mismatch")
    one = principal_form(D)
    acc = reduce(form)
    k = 1
    while acc != one:
        acc = compose(acc, form)
        k += 1
    return k

