"""Exact arithmetic in F_p and F_{p^2}, Kronecker symbols, and root finding.

F_{p^2} is realised as F_p(s) with s^2 = n for the smallest quadratic
non-residue n >= 2 mod p, so element representations are canonical and
comparable across runs.
"""

from __future__ import annotations

from sympy import isprime

MAX_ROOT_DEGREE = 64


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for positive n; Legendre symbol for prime n."""
    if n <= 0:
        raise ValueError("kronecker_symbol requires n >= 1")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class PrimeField:
    """Context for F_p and its quadratic extension F_p(s), s^2 = non_residue."""

    __slots__ = ("p", "non_residue")

    def __init__(self, p: int):
        if p <= 3:
            raise ValueError(f"prime must exceed 3, got {p}")
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        n = 2
        while kronecker_symbol(n, p) != -1:
            n += 1
        self.non_residue = n

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def elem(self, a: int, b: int = 0) -> "QuadExtElement":
        return QuadExtElement(self, a, b)

    @property
    def zero(self) -> "QuadExtElement":
        return QuadExtElement(self, 0, 0)

    @property
    def one(self) -> "QuadExtElement":
        return QuadExtElement(self, 1, 0)

    def sqrt_of_nonresidue(self) -> "QuadExtElement":
        return QuadExtElement(self, 0, 1)


class QuadExtElement:
    """Element a + b*s of F_{p^2} in the fixed basis (1, s)."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: PrimeField, a: int, b: int = 0):
        self.field = field
        self.a = a % field.p
        self.b = b % field.p

    def _coerce(self, other):
        if isinstance(other, QuadExtElement):
            if other.field != self.field:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return QuadExtElement(self.field, other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExtElement(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExtElement(self.field, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, n = self.field.p, self.field.non_residue
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadExtElement(self.field, (a * c + n * b * d) % p, (a * d + b * c) % p)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "QuadExtElement":
        """Inverse via the norm a^2 - n*b^2 down in F_p."""
        p, n = self.field.p, self.field.non_residue
        norm = (self.a * self.a - n * self.b * self.b) % p
        if norm == 0:
            raise ValueError("inversion of zero in F_p^2")
        inv = pow(norm, p - 2, p)
        return QuadExtElement(self.field, self.a * inv, -self.b * inv)

    def conjugate(self) -> "QuadExtElement":
        return QuadExtElement(self.field, self.a, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def in_prime_field(self) -> bool:
        return self.b == 0

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __eq__(self, other):
        return (
            isinstance(other, QuadExtElement)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field.p, self.a, self.b))

    def __lt__(self, other):
        return self.key() < other.key()

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*s"

    def __repr__(self):
        return f"({self.a}, {self.b})"


# Internal polynomial layer: coefficient lists of (a, b) int pairs, low
# degree first, trailing zeros trimmed.  Kept free of object wrappers
# because graph construction calls into this for every vertex.


def _trim(c):
    while c and c[-1] == (0, 0):
        c.pop()
    return c


def _pmul(u, v, p, n):
    if not u or not v:
        return []
    out = [(0, 0)] * (len(u) + len(v) - 1)
    for i, (a, b) in enumerate(u):
        if a == 0 and b == 0:
            continue
        for j, (c, d) in enumerate(v):
            ea, eb = out[i + j]
            out[i + j] = ((ea + a * c + n * b * d) % p, (eb + a * d + b * c) % p)
    return _trim(out)


def _pmod(u, f, p, n):
    """Remainder of u modulo monic f."""
    r = list(u)
    df = len(f) - 1
    while len(r) - 1 >= df:
        a, b = r[-1]
        if a or b:
            shift = len(r) - 1 - df
            for i, (c, d) in enumerate(f[:-1]):
                ea, eb = r[shift + i]
                r[shift + i] = ((ea - a * c - n * b * d) % p, (eb - a * d - b * c) % p)
        r.pop()
    return _trim(r)


def _pmulmod(u, v, f, p, n):
    return _pmod(_pmul(u, v, p, n), f, p, n)


def _inv2(a, b, p, n):
    norm = (a * a - n * b * b) % p
    inv = pow(norm, p - 2, p)
    return (a * inv % p, -b * inv % p)


def _monic(u, p, n):
    if not u:
        return []
    a, b = u[-1]
    if (a, b) == (1, 0):
        return list(u)
    ia, ib = _inv2(a, b, p, n)
    return _trim([((c * ia + n * d * ib) % p, (c * ib + d * ia) % p) for (c, d) in u])


def _padd_const(u, pair, p):
    if not u:
        a, b = pair[0] % p, pair[1] % p
        return [(a, b)] if (a, b) != (0, 0) else []
    out = list(u)
    out[0] = ((out[0][0] + pair[0]) % p, (out[0][1] + pair[1]) % p)
    return _trim(out)


def _pgcd(u, v, p, n):
    u, v = list(u), list(v)
    while v:
        u, v = v, _pmod(u, _monic(v, p, n), p, n)
    return _monic(u, p, n)


def _ppowmod(base, e, f, p, n):
    result = [(1, 0)]
    base = _pmod(base, f, p, n)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p, n)
        e >>= 1
        if e:
            base = _pmulmod(base, base, f, p, n)
    return result


def _frobenius_power(f, p, n):
    """x^(p^2) mod monic f, via x^p and coefficient-conjugated composition."""
    xp = _ppowmod([(0, 0), (1, 0)], p, f, p, n)
    # (x^p)^p = sum conj(c_i) * (x^p)^i since a -> a^p conjugates F_{p^2}.
    result = []
    for a, b in reversed(xp):
        result = _pmulmod(result, xp, f, p, n)
        result = _padd_const(result, (a, -b), p)
    return result


def _candidates(p):
    """Deterministic splitting candidates: 1, s, 1+s, 2, 2+s, 3, 3+s, ..."""
    yield (1, 0)
    yield (0, 1)
    yield (1, 1)
    a = 2
    while True:
        yield (a % p, 0)
        yield (a % p, 1)
        a += 1


def _split_linear(g, p, n):
    """Roots of monic squarefree g that is a product of distinct linear factors."""
    if len(g) - 1 <= 0:
        return []
    if len(g) - 1 == 1:
        a, b = g[0]
        return [(-a % p, -b % p)]
    e = (p * p - 1) // 2
    for cand in _candidates(p):
        w = _ppowmod([cand, (1, 0)], e, g, p, n)
        w = _padd_const(w, (-1, 0), p)
        d = _pgcd(g, w, p, n)
        if 0 < len(d) - 1 < len(g) - 1:
            q = _pquo(g, d, p, n)
            return _split_linear(d, p, n) + _split_linear(q, p, n)
    raise AssertionError("splitting candidates exhausted")  # pragma: no cover


def _pquo(u, f, p, n):
    """Quotient of u by monic f, assuming exact division."""
    r = list(u)
    df = len(f) - 1
    q = [(0, 0)] * (len(r) - df)
    while len(r) - 1 >= df:
        a, b = r[-1]
        shift = len(r) - 1 - df
        q[shift] = (a, b)
        if a or b:
            for i, (c, d) in enumerate(f[:-1]):
                ea, eb = r[shift + i]
                r[shift + i] = ((ea - a * c - n * b * d) % p, (eb - a * d - b * c) % p)
        r.pop()
    return _trim(q)


def _divide_out_root(c, root, p, n):
    """Synthetic division of c by (x - root); returns (quotient, remainder)."""
    ra, rb = root
    d = len(c) - 1
    q = [(0, 0)] * d
    q[d - 1] = c[d]
    for i in range(d - 1, 0, -1):
        ca, cb = c[i]
        aa, ab = q[i]
        q[i - 1] = ((ca + aa * ra + n * ab * rb) % p, (cb + aa * rb + ab * ra) % p)
    ca, cb = c[0]
    aa, ab = q[0]
    rem = ((ca + aa * ra + n * ab * rb) % p, (cb + aa * rb + ab * ra) % p)
    return q, rem


def _roots_internal(c, p, n):
    """All roots of c in F_{p^2} with multiplicity, as sorted (a, b) pairs."""
    c = _monic(c, p, n)
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        a, b = c[0]
        return [(-a % p, -b % p)]
    frob = _frobenius_power(c, p, n)
    # distinct-degree step: gcd with x^{p^2} - x picks out the linear part
    fx = list(frob)
    if len(fx) < 2:
        fx = fx + [(0, 0)] * (2 - len(fx))
    fx[1] = ((fx[1][0] - 1) % p, fx[1][1])
    g = _pgcd(c, _trim(fx), p, n)
    distinct = _split_linear(g, p, n)
    out = []
    for root in sorted(distinct):
        rem = c
        while True:
            quo, r = _divide_out_root(rem, root, p, n)
            if r != (0, 0):
                break
            out.append(root)
            rem = quo
            if len(rem) <= 1:
                break
    return sorted(out)


class PolyOverFp2:
    """Univariate polynomial over F_{p^2}, coefficients lowest degree first."""

    __slots__ = ("field", "_c")

    def __init__(self, field: PrimeField, coeffs):
        self.field = field
        c = []
        for x in coeffs:
            if isinstance(x, QuadExtElement):
                if x.field != field:
                    raise ValueError("coefficient from a different field")
                c.append((x.a, x.b))
            elif isinstance(x, int):
                c.append((x % field.p, 0))
            else:
                c.append((x[0] % field.p, x[1] % field.p))
        self._c = tuple(_trim(c))

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def coeffs(self) -> list[QuadExtElement]:
        return [QuadExtElement(self.field, a, b) for a, b in self._c]

    def coeff_pairs(self) -> tuple:
        return self._c

    def __call__(self, x: QuadExtElement) -> QuadExtElement:
        acc = self.field.zero
        for a, b in reversed(self._c):
            acc = acc * x + QuadExtElement(self.field, a, b)
        return acc

    def __mul__(self, other: "PolyOverFp2") -> "PolyOverFp2":
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        p, n = self.field.p, self.field.non_residue
        return PolyOverFp2(self.field, _pmul(list(self._c), list(other._c), p, n))

    def __add__(self, other: "PolyOverFp2") -> "PolyOverFp2":
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        a, b = list(self._c), list(other._c)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, (c, d) in enumerate(b):
            out[i] = ((out[i][0] + c) % self.field.p, (out[i][1] + d) % self.field.p)
        return PolyOverFp2(self.field, out)

    def __eq__(self, other):
        return (
            isinstance(other, PolyOverFp2)
            and self.field == other.field
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.field.p, self._c))

    def __repr__(self):
        return f"PolyOverFp2({self.field.p}, {list(self._c)})"


def poly_roots(f: PolyOverFp2) -> list[QuadExtElement]:
    """All roots of f in F_{p^2} with multiplicity, sorted by (a, b).

    Distinct-degree splitting against x^(p^2) - x isolates the linear part,
    equal-degree splitting with a deterministic candidate sequence separates
    the roots, and multiplicities are read off by repeated division.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no root multiset")
    if f.degree > MAX_ROOT_DEGREE:
        raise ValueError(f"degree {f.degree} exceeds cap {MAX_ROOT_DEGREE}")
    p, n = f.field.p, f.field.non_residue
    pairs = _roots_internal(list(f.coeff_pairs()), p, n)
    return [QuadExtElement(f.field, a, b) for a, b in pairs]
