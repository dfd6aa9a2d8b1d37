"""Exact arithmetic in F_p and F_{p^2}, integer primitives, square roots, and root finding.

F_{p^2} is realised as F_p(s) with s^2 = n for the smallest quadratic
non-residue n >= 2 mod p, so element representations are canonical and
comparable across runs.  The integer primitives (primality, factoring,
divisors, Mobius) are sized for the program's ranges: primes below
PRIMALITY_BOUND and factoring of discriminants up to 10^8.
"""

from __future__ import annotations

MAX_ROOT_DEGREE = 64

# psi_13, the least strong pseudoprime to every prime base up to 41
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).  Miller-Rabin on those bases is a proof below it.
PRIMALITY_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin on the bases 2..41.

    Raises ValueError for n >= PRIMALITY_BOUND, where these bases prove
    nothing.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"is_prime(n={n}): primality is proven only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime greater than n."""
    n = max(n, 1) + 1
    while not is_prime(n):
        n += 1
    return n


def factor(n: int) -> dict[int, int]:
    """Prime factorisation {q: e} of n >= 1, primes ascending.

    Trial division by 2, 3 and then 6k +- 1 up to sqrt(n): at most about
    3300 divisions for n <= 10^8, the discriminant cap.
    """
    if n < 1:
        raise ValueError(f"factor(n={n}): n must be positive")
    out = {}
    for q in (2, 3):
        while not n % q:
            out[q] = out.get(q, 0) + 1
            n //= q
    q, step = 5, 2
    while q * q <= n:
        while not n % q:
            out[q] = out.get(q, 0) + 1
            n //= q
        q, step = q + step, 6 - step
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for q, e in factor(n).items():
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """The Mobius function of n >= 1."""
    exponents = factor(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


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
        if not is_prime(p):
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
    if norm == 0:
        raise ZeroDivisionError(f"inverse of 0 in F_(p^2), p={p}")
    inv = pow(norm, p - 2, p)
    return (a * inv % p, -b * inv % p)


def _mul2(x, y, p, n):
    (a, b), (c, d) = x, y
    return ((a * c + n * b * d) % p, (a * d + b * c) % p)


def _axpy(x, y, k, p):
    """x + k*y for pairs x, y and an integer k."""
    return ((x[0] + k * y[0]) % p, (x[1] + k * y[1]) % p)


def _pow2(x, e, p, n):
    r = (1, 0)
    while e:
        if e & 1:
            r = _mul2(r, x, p, n)
        x, e = _mul2(x, x, p, n), e >> 1
    return r


def _sqrt_fp(x, p, n):
    """A square root of x in F_p, or None if x is a non-residue.

    pow when p = 3 mod 4; Tonelli-Shanks with the non-residue n otherwise.
    Written out rather than sympy's sqrt_mod, which is 5-15 times slower per
    call: on a 2-vCPU VM build_graph(20029, 2) takes 115 ms with sqrt_mod
    and 52 ms with this.
    """
    x %= p
    if x == 0:
        return 0
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
        return r if r * r % p == x else None
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c = pow(n, q, p)
    r = pow(x, (q + 1) // 2, p)
    t = pow(x, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c = r * b % p, b * b % p
        t, s = t * c % p, i
    return r


def _sqrt_fp2(z, p, n):
    """A square root of z = a + b*s in F_{p^2}; ArithmeticError if z is not a square.

    With norm N = a^2 - n*b^2 = c^2 in F_p, a root x + y*s has x^2 = (a + c)/2
    or (a - c)/2 (exactly one is a residue when b != 0) and y = b/(2x).
    """
    a, b = z
    if b == 0:
        r = _sqrt_fp(a, p, n)
        if r is not None:
            return (r, 0)
        return (0, _sqrt_fp(a * pow(n, p - 2, p), p, n))
    c = _sqrt_fp(a * a - n * b * b, p, n)
    if c is None:
        raise ArithmeticError(f"{a}+{b}*s is not a square in F_(p^2), p={p}")
    half = (p + 1) // 2
    x = _sqrt_fp((a + c) * half, p, n)
    if x is None:
        x = _sqrt_fp((a - c) * half, p, n)
    return (x, b * pow(2 * x, p - 2, p) % p)


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
    """The 2p splitting candidates a and a + s for a in F_p: 1, s, 1+s, 2, 2+s, ..., 0."""
    yield (1, 0)
    yield (0, 1)
    yield (1, 1)
    for a in range(2, p):
        yield (a, 0)
        yield (a, 1)
    yield (0, 0)


def _split_linear(g, p, n):
    """Roots of monic squarefree g that is a product of distinct linear factors.

    Degrees up to 3 are solved in closed form, by the quadratic formula and
    by Cardano (Cohen, Alg. 1.6.1); from degree 4 on, equal-degree splitting
    by gcd with (x + c)^((p^2 - 1)/2) - 1 over the candidates c separates
    the roots.  Cardano cannot fail on a split cubic: Q^2/4 + P^3/27 is -3
    times a square, and -3 is a square in F_{p^2}; u is a Lagrange resolvent
    of the roots, which lies in F_{p^2} with the cube roots of unity.  So a
    None from it is refused, not retried.
    """
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        a, b = g[0]
        return [(-a % p, -b % p)]
    if deg == 2:
        return _quadratic_roots(g, p, n)
    if deg == 3:
        roots = _cubic_roots(g, p, n)
        if roots is None:
            raise ArithmeticError(
                f"poly_roots(p={p}): Cardano found no root of a cubic factor; it does "
                f"not split into distinct linear factors over F_(p^2)"
            )
        return roots
    e = (p * p - 1) // 2
    for cand in _candidates(p):
        w = _ppowmod([cand, (1, 0)], e, g, p, n)
        w = _padd_const(w, (-1, 0), p)
        d = _pgcd(g, w, p, n)
        if 0 < len(d) - 1 < len(g) - 1:
            roots = _split_linear(d, p, n)
            for root in roots:
                g, _ = _divide_out_root(g, root, p, n)
            return roots + _split_linear(g, p, n)
    raise ArithmeticError(
        f"poly_roots(p={p}): no splitting candidate separates the roots of a "
        f"degree-{deg} factor; it does not split into distinct linear "
        f"factors over F_(p^2)"
    )


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


def _deflate(c, root, p, n):
    """The multiplicity m of root in c, and the quotient c / (x - root)^m."""
    m = 0
    while len(c) > 1:
        quo, rem = _divide_out_root(c, root, p, n)
        if rem != (0, 0):
            break
        m, c = m + 1, quo
    return m, c


def _quadratic_roots(c, p, n):
    """Both roots of the monic quadratic c = [q0, q1, 1], with multiplicity.

    X^2 + q1 X + q0 has roots (-q1 +- sqrt(q1^2 - 4 q0)) / 2; a zero
    discriminant gives the double root.
    """
    (q0a, q0b), (a, b), _ = c
    disc = ((a * a + n * b * b - 4 * q0a) % p, (2 * a * b - 4 * q0b) % p)
    try:
        ra, rb = _sqrt_fp2(disc, p, n)
    except ArithmeticError as exc:
        raise ArithmeticError(f"poly_roots(p={p}): discriminant of a quadratic factor: "
                              f"{exc}") from None
    half = (p + 1) // 2
    return [((ra - a) * half % p, (rb - b) * half % p),
            ((-ra - a) * half % p, (-rb - b) * half % p)]


def _cube_root(x, p, n):
    """A cube root of x in F_{p^2}, or None if x is not a cube.

    Adleman-Manders-Miller: with p^2 - 1 = 3^e m, 3 not dividing m, and
    k = m mod 3, x = (x^j)^3 (x^m)^k for j = (1 - mk)/3.  x^m lies in the
    3-Sylow subgroup, generated by z = g^m for the first non-cube g of
    _candidates; its discrete log L to base z, taken digit by digit in base
    3, is divisible by 3 exactly when x is a cube, and then x^j z^(kL/3)
    is a cube root.
    """
    if x == (0, 0):
        return x
    order = p * p - 1
    m, e = order, 0
    while m % 3 == 0:
        m, e = m // 3, e + 1
    y = _pow2(x, m, p, n)
    if _pow2(y, 3 ** (e - 1), p, n) != (1, 0):
        return None
    k = m % 3
    root = _pow2(x, (1 - m * k) // 3 % order, p, n)
    if y == (1, 0):
        return root
    z, w = next((z, w) for z in (_pow2(g, m, p, n) for g in _candidates(p))
                if (w := _pow2(z, 3 ** (e - 1), p, n)) != (1, 0))
    z_inv = _inv2(*z, p, n)
    unity = [(1, 0), w, _mul2(w, w, p, n)]
    log, t = 0, y
    for i in range(1, e):
        digit = unity.index(_pow2(t, 3 ** (e - 1 - i), p, n))
        t = _mul2(t, _pow2(z_inv, digit * 3**i, p, n), p, n)
        log += digit * 3**i
    return _mul2(root, _pow2(z, k * log // 3, p, n), p, n)


def _cubic_roots(c, p, n):
    """The three roots of the monic cubic c = [c0, c1, c2, 1] with
    multiplicity, or None unless c splits into linear factors over F_{p^2}.

    Cardano: X = t - c2/3 gives t^3 + P t + Q.  With u^3 = -Q/2 +
    sqrt(Q^2/4 + P^3/27), the other sign of the square root when that is 0,
    and v = -P/(3u), the roots are t = w u + v/w for the three cube roots of
    unity w; P = 0 makes them the cube roots of -Q.  A non-square
    Q^2/4 + P^3/27 or a non-cube u^3 means c does not split.
    """
    c0, c1, c2, _ = c
    third, half = pow(3, p - 2, p), (p + 1) // 2
    h = _axpy((0, 0), c2, third, p)
    h2 = _mul2(h, h, p, n)
    P = _axpy(c1, h2, -3, p)
    Q = _axpy(c0, _mul2(h, _axpy(c1, h2, -2, p), p, n), -1, p)
    mq = _axpy((0, 0), Q, -half, p)
    p_cubed = _mul2(_mul2(P, P, p, n), P, p, n)
    try:
        r = _sqrt_fp2(_axpy(_mul2(mq, mq, p, n), p_cubed, pow(27, p - 2, p), p), p, n)
    except ArithmeticError:
        return None
    cube = _axpy(mq, r, 1, p)
    if cube == (0, 0):
        cube = _axpy(mq, r, -1, p)
    if cube == (0, 0):
        return [_axpy((0, 0), h, -1, p)] * 3
    u = _cube_root(cube, p, n)
    if u is None:
        return None
    v = _mul2(_axpy((0, 0), P, -third, p), _inv2(*u, p, n), p, n)
    w = _axpy((-half, 0), _sqrt_fp2((p - 3, 0), p, n), half, p)
    w2 = _mul2(w, w, p, n)
    return [_axpy(_axpy(_mul2(wu, u, p, n), _mul2(wv, v, p, n), 1, p), h, -1, p)
            for wu, wv in (((1, 0), (1, 0)), (w, w2), (w2, w))]


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
        m, c = _deflate(c, root, p, n)
        out += [root] * m
    return out


class PolyOverFp2:
    """Univariate polynomial over F_{p^2}, coefficients lowest degree first.

    Each coefficient is an int (an element of F_p) or an (a, b) pair for a + b*s.
    """

    __slots__ = ("field", "_c")

    def __init__(self, field: PrimeField, coeffs):
        self.field = field
        p = field.p
        c = [(x % p, 0) if isinstance(x, int) else (x[0] % p, x[1] % p) for x in coeffs]
        self._c = tuple(_trim(c))

    @classmethod
    def from_roots(cls, field: PrimeField, roots) -> "PolyOverFp2":
        """The monic product of (X - r) over the (a, b) roots, repeated ones included."""
        p, n = field.p, field.non_residue
        out = [(1, 0)]
        for a, b in roots:
            out = _pmul(out, [(-a % p, -b % p), (1, 0)], p, n)
        return cls(field, out)

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def coeff_pairs(self) -> tuple:
        return self._c

    def __eq__(self, other):
        return (
            isinstance(other, PolyOverFp2)
            and self.field == other.field
            and self._c == other._c
        )

    def __repr__(self):
        return f"PolyOverFp2({self.field.p}, {list(self._c)})"


def poly_roots(f: PolyOverFp2, known_root: tuple[int, int] | None = None) -> list[tuple[int, int]]:
    """All roots of f in F_{p^2} with multiplicity, as sorted (a, b) pairs.

    Distinct-degree splitting against x^(p^2) - x isolates the linear part,
    equal-degree splitting with a deterministic candidate sequence separates
    it into factors of degree at most 3, which the quadratic formula and
    Cardano's formula solve, and multiplicities are read off by repeated
    division.  Given a root the caller already knows, as a reduced (a, b)
    pair, f is divided by it first, and a quadratic left over is solved
    with one square root in F_{p^2}; a nonzero remainder refuses a known
    root that is not one.  A cubic, f itself or the quotient left by the
    known root, goes to Cardano's formula first, with no Frobenius power,
    and to the general path only when it does not split into linear
    factors over F_{p^2}.
    """
    if f.degree < 0:
        raise ValueError("zero polynomial has no root multiset")
    if f.degree > MAX_ROOT_DEGREE:
        raise ValueError(f"degree {f.degree} exceeds cap {MAX_ROOT_DEGREE}")
    p, n = f.field.p, f.field.non_residue
    c = _monic(list(f.coeff_pairs()), p, n)
    known = []
    if known_root is not None:
        c, rem = _divide_out_root(c, known_root, p, n) if len(c) > 1 else ([], c[0])
        if rem != (0, 0):
            raise ArithmeticError(f"known root {known_root[0]}+{known_root[1]}*s is not a root")
        known = [known_root]
        if len(c) == 3:
            return sorted(known + _quadratic_roots(c, p, n))
    rest = _cubic_roots(c, p, n) if len(c) == 4 else None
    return sorted(known + (rest or _roots_internal(c, p, n)))
