"""Hilbert class polynomials from complex CM points, reduction mod p, rim location.

H_D is computed from j when 3 divides D.  Otherwise it comes from the class
polynomial of gamma_2 = E4 / eta^8 = j^(1/3), which has a third of the
coefficient bits (Cox, Primes of the form x^2 + ny^2, section 12; Enge and
Morain, "Comparing invariants for class fields of imaginary quadratic
fields", 2002): that polynomial H(X) = A(X^3) + X B(X^3) + X^2 C(X^3) is
rounded, and H_D(Y) = A^3 + Y B^3 + Y^2 C^3 - 3 Y A B C follows exactly.

Values are computed in fixed point on Python ints: a real x is held as the
integer x 2^P (floored), a complex number as a pair of them, at
P = precision + _GUARD_BITS fractional bits.  The precision is
pi sqrt|D| sum 1/a / (root ln 2) + 64 bits over the reduced forms (a, b, c),
root 1 for j and 3 for gamma_2: the first term bounds the bits of the
largest coefficient.  For each form, a plain int triple, w^(1/root) =
exp((pi sqrt|D| + i pi b) / (root a)), w = 1/q, is built from pi (Machin),
sqrt|D| (math.isqrt) and 2^k exp(r + i theta), so it has a relative error
near 2^-P however large it is (w is about 2^1433 for the principal form at
|D| near 10^5).  pi and ln 2 are computed once per class polynomial.  Both
invariants come from the eta quotient f = Delta(2 tau) / Delta(tau) = q R,
R = (P(q^2) / P(q))^24, with P from Euler's pentagonal series (Cohen, Alg.
7.6.1): j = (w / R) (1 + 256 q R)^3 and gamma_2 = w^(1/3) R^(-1/3)
(1 + 256 q R).  Where |q| < 2^-P, q floors to 0 but w / R keeps its
relative error near 2^-P.  The guard bits absorb the floorings of the
series and of the expansion, a few units each.  Every value is taken at a
reduced form's tau, where the series are shortest; the gamma_2 conjugate
of a class is a cube root of unity times gamma_2 there.

The class polynomial is expanded in real arithmetic: the invariant is real
at the forms that are their own inverse (b = 0, b = a or a = c), and the
forms (a, b, c) and (a, -b, c) give conjugate values, so each pair is one
real quadratic factor.  Coefficients are rounded to integers; the rounding
residual, and |Im x| at the real values x, must stay below 0.25 or the
computation retries at doubled precision.

Rims need no ell-graph.  `locate_rim_vertices` checks its inputs, then
searches the ell = 2 graph breadth first from its seed (`ssgraph.bfs`).
When p neither divides the conductor of D nor splits in its field,
Deuring's reduction theorem puts every root of H_D mod p among the
supersingular j; dividing H_D mod p by (X - v) for each vertex v as the
search reaches it finds the roots with multiplicity, and the search stops
once H_D mod p is used up.  A search that runs out first refutes the
premise.  Two roots u, v are joined by as many edges as v's multiplicity
as a root of Phi_ell(X, u), and a bounded depth-first search threads the
roots into rim cycles that do not backtrack (away from j = 0 and 1728,
where the turn is not checked).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from . import quadform
# poly_roots is no longer called here, but perfbench's tracer replaces it in
# every module that imports it, and
# perfbench/tests/test_perfbench.py::test_tracer_wraps_imported_names_and_restores
# asserts hilbert.poly_roots is ff.poly_roots.
from .ff import (MAX_ROOT_DEGREE, PolyOverFp2, PrimeField, QuadExtElement, _deflate,
                 kronecker_symbol, poly_roots)
from .modpoly import instantiate, reduce_mod_p, resolve_modular_polynomial

MAX_ABS_DISC = 10**5
MAX_PRECISION_BITS = 8192
_GUARD_BITS = 48
_MAX_RETRIES = 3
THREADING_BUDGET = 10**6


def _inverse_series(x: int, bits: int, alternating: bool) -> int:
    """2^bits * sum_k s_k / ((2k + 1) x^(2k + 1)), s_k = (-1)^k or 1: atan or atanh of 1/x.

    Each term is floored from a non-negative power of 1/x, so the loop ends
    when that power reaches 0, with an error below one unit per term.
    """
    power = (1 << bits) // x
    total, k, x2 = power, 1, x * x
    while power:
        power //= x2
        term = power // (2 * k + 1)
        total += -term if alternating and k % 2 else term
        k += 1
    return total


def _constants(precision: int) -> tuple[int, int]:
    """pi (Machin) and ln 2 = 2 atanh(1/3) within 2 units, for j_evaluate at `precision`.

    They are fixed point at the working bits of `_inverse_nome`,
    bits + isqrt(bits) + 42 for bits = precision + _GUARD_BITS.
    """
    bits = precision + _GUARD_BITS
    extra = bits + math.isqrt(bits) + 42 + 24
    pi = 4 * (4 * _inverse_series(5, extra, True) - _inverse_series(239, extra, True))
    ln2 = 2 * _inverse_series(3, extra, False)
    return pi >> 24, ln2 >> 24


def _mul(x, y, bits: int):
    (a, b), (c, d) = x, y
    return (a * c - b * d) >> bits, (a * d + b * c) >> bits


def _div(x, y, bits: int):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) << bits) // n, ((b * c - a * d) << bits) // n


def _inverse_nome(form, bits: int, constants, root: int):
    """w^(1/root) = exp((pi sqrt|D| + i pi b) / (root a)) at the root of `form`, at `bits`.

    For root 1 this is w = 1/q.  For root 3 the angle is taken from b itself,
    not from b mod 2a, so that the form (a, b - 2a, .) of tau + 1 gives the
    value times exp(-2 pi i / 3), as gamma_2 needs.  With
    t = pi sqrt|D| / (root a) = k ln 2 + r and theta = pi b / (root a)
    reduced into (-pi, pi], the value is 2^k exp(z) for z = r + i theta,
    |z| < 4.  exp(z) is the Taylor series at z / 2^s squared s times; the
    squarings lose s bits and k ln 2 up to 12, so this runs at bits + s + 40
    and the value keeps a relative error near 2^-bits however large it is.
    pi and ln 2 come in as `constants`, from _constants at the same precision.
    """
    a, b, c = form
    s = math.isqrt(bits) + 2
    work = bits + s + 40
    pi, ln2 = constants
    ra = root * a
    t = (pi * math.isqrt((4 * a * c - b * b) << 2 * work) >> work) // ra
    k = t // ln2
    m = b % (2 * ra)
    if m > ra:
        m -= 2 * ra
    z = ((t - k * ln2) >> s, pi * m // ra >> s)
    # |z| < 2^(2 - s) makes term n below 2^(n (2 - s)), so the count is fixed
    total = term = (1 << work, 0)
    for n in range(1, -(-work // (s - 2)) + 1):
        re, im = _mul(term, z, work)
        term = (re // n, im // n)
        total = (total[0] + term[0], total[1] + term[1])
    for _ in range(s):
        re, im = total
        total = ((re + im) * (re - im) >> work, 2 * re * im >> work)
    shift = work - bits - k
    if shift >= 0:
        return total[0] >> shift, total[1] >> shift
    return total[0] << -shift, total[1] << -shift


def _pentagonal_length(form, bits: int) -> tuple[int, float]:
    """The pairs n = 1..N of Euler's pentagonal series that P(q) needs, and E.

    With |q| = exp(-lam), lam = pi sqrt|D| / a, the terms q^e for e >= E sum
    to at most |q|^E / (1 - |q|), which is 2^-bits for
    E = (bits ln 2 - ln(1 - |q|)) / lam; N is the last n with
    n (3n - 1) / 2 < E.  The count is fixed before the loop from this float
    bound: fixed-point terms of either sign floor to -1, not 0, so a loop
    that waits for a term to vanish need not end.
    """
    a, b, c = form
    lam = math.pi * math.sqrt(4 * a * c - b * b) / a
    e_max = (bits * math.log(2) - math.log(-math.expm1(-lam))) / lam
    return int((1 + math.sqrt(1 + 24 * e_max)) / 6), e_max


def _eta_quotient(w, form, bits: int):
    """r^8, r^24 and u = 1 + 256 q r^24 for q = 1/w and r = P(q^2) / P(q), at `bits`.

    P(q) = prod (1 - q^n) comes from Euler's pentagonal series (Cohen, Alg.
    7.6.1), and q r^24 = Delta(2 tau) / Delta(tau).
    """
    one = 1 << bits
    norm = w[0] * w[0] + w[1] * w[1]
    q = (w[0] << 2 * bits) // norm, (-w[1] << 2 * bits) // norm
    # P(q) = 1 + sum_{n >= 1} (-1)^n (q^(n(3n-1)/2) + q^(n(3n+1)/2));
    # P(q^2) sums the squares of the same terms
    n_terms, e_max = _pentagonal_length(form, bits)
    p1 = p2 = (one, 0)
    q2 = _mul(q, q, bits)
    lo, qn, q_odd = q, q, _mul(q2, q, bits)  # q^(n(3n-1)/2), q^n, q^(2n+1)
    sign = -1
    for n in range(1, n_terms + 1):
        hi = _mul(lo, qn, bits)
        p1 = (p1[0] + sign * (lo[0] + hi[0]), p1[1] + sign * (lo[1] + hi[1]))
        if n * (3 * n - 1) < e_max:
            lo2, hi2 = _mul(lo, lo, bits), _mul(hi, hi, bits)
            p2 = (p2[0] + sign * (lo2[0] + hi2[0]), p2[1] + sign * (lo2[1] + hi2[1]))
        lo = _mul(hi, q_odd, bits)
        qn = _mul(qn, q, bits)
        q_odd = _mul(q_odd, q2, bits)
        sign = -sign
    r = _div(p2, p1, bits)
    r8 = _mul(r, r, bits)
    r8 = _mul(r8, r8, bits)
    r8 = _mul(r8, r8, bits)
    r24 = _mul(r8, _mul(r8, r8, bits), bits)
    f = _mul(q, r24, bits)
    return r8, r24, (one + 256 * f[0], 256 * f[1])


def j_evaluate(form, precision: int, constants):
    """Klein j at the root tau = (-b + i sqrt|D|) / 2a of `form`, as fixed point.

    Returns (re, im) with j = (re + i im) / 2^(precision + _GUARD_BITS).
    With f = Delta(2 tau) / Delta(tau) = q R, R = (P(q^2) / P(q))^24,
    j = (256 f + 1)^3 / f = (w / R) (1 + 256 q R)^3 with w = 1/q:
    dividing the large w by R, which is near 1, keeps j's relative error
    near 2^-bits even where q itself is below 2^-bits and rounds to 0.
    `constants` are pi and ln 2 from _constants(precision).
    """
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"precision {precision} exceeds cap {MAX_PRECISION_BITS}")
    bits = precision + _GUARD_BITS
    w = _inverse_nome(form, bits, constants, 1)
    _, r24, u = _eta_quotient(w, form, bits)
    return _mul(_div(w, r24, bits), _mul(_mul(u, u, bits), u, bits), bits)


def _gamma2_twist(form) -> int:
    """k in {0, 1, 2} such that gamma_2(tau + k) is the conjugate the reduced `form` stands for.

    For 3 not dividing D, the conjugates of gamma_2 = j^(1/3) are its values
    at forms (A, B, C) with 3 not dividing A and 3 dividing B, one in each
    class (Cox, Primes of the form x^2 + ny^2, section 12; Enge and Morain
    2002).  gamma_2(-1/tau) = gamma_2(tau) and gamma_2(tau + 1) =
    exp(-2 pi i / 3) gamma_2(tau).  If 3 does not divide a, T^m (tau ->
    tau + m) makes 3 divide B = b - 2am at m = -ab mod 3, as 2 = -1 and
    a^2 = 1 mod 3.  If 3 divides a, S (tau -> -1/tau, the form (c, -b, a))
    comes first, and then m = bc.  If 3 divides c too, T then S gives
    (a - b + c, 2a - b, a), and k = 1 - (a - b + c)(2a - b) = 1 - b^2 = 0,
    as b^2 = D is 1 mod 3: again bc mod 3.
    """
    a, b, c = form
    return (b * c if a % 3 == 0 else -a * b) % 3


def _gamma2_evaluate(form, precision: int, constants):
    """The conjugate of gamma_2 for the reduced `form`, as fixed point like j_evaluate.

    It is gamma_2(tau + k), k from _gamma2_twist, at the reduced tau: tau + k
    has the same q, and its form (a, b - 2ak, .) puts the twist into the cube
    root v = w^(1/3).  With r = P(q^2) / P(q) and f = q r^24,
    gamma_2 = (1 + 256 f) / f^(1/3) = (v / r^8)(1 + 256 f).
    """
    a, b, c = form
    k = _gamma2_twist(form)
    bits = precision + _GUARD_BITS
    v = _inverse_nome((a, b - 2 * a * k, c - b * k + a * k * k), bits, constants, 3)
    r8, _, u = _eta_quotient(_mul(_mul(v, v, bits), v, bits), form, bits)
    return _mul(_div(v, r8, bits), u, bits)


class ClassPolynomial(NamedTuple):
    """Monic integer polynomial of degree h(D) with CM j-invariants as roots."""

    coefficients: tuple  # lowest degree first, leading 1 included

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _precision_for(forms, root: int) -> int:
    """Bits for the class polynomial of j^(1/root): its height bound plus 64."""
    a, b, c = forms[0]
    height = math.pi * math.sqrt(4 * a * c - b * b) * math.fsum(1 / f[0] for f in forms)
    return math.ceil(height / root / math.log(2)) + 64


def _expand_at(forms, precision, root: int):
    """Integer coefficients of H_D and rounding residual at one working precision.

    The roots expanded are the conjugates of j (root 1) or of gamma_2 =
    j^(1/3) (root 3).  Only the forms with b >= 0 are evaluated.  Where
    b = 0, a = b or a = c, the value is real; every other (a, b, c) also
    stands for (a, -b, c), whose value is the complex conjugate, so the pair
    gives X^2 - 2 Re(x) X + |x|^2.  The expansion is real, in fixed point at
    precision + _GUARD_BITS fractional bits; the residual also takes |Im x|
    at the real values.  pi and ln 2 are computed once for all the forms.
    The class polynomial of gamma_2 is rounded, then cubed exactly.
    """
    evaluate = j_evaluate if root == 1 else _gamma2_evaluate
    bits = precision + _GUARD_BITS
    one = 1 << bits
    coeffs = [one]
    residual = 0.0
    constants = _constants(precision)
    for a, b, c in forms:
        if b < 0:
            continue
        re, im = evaluate((a, b, c), precision, constants)
        if b == 0 or b == a or a == c:
            residual = max(residual, abs(im) / one)
            factor = (-re,)
        else:
            factor = ((re * re + im * im) >> bits, -2 * re)
        k = len(factor)
        nxt = [0] * (len(coeffs) + k)
        for i, c in enumerate(coeffs):
            nxt[i + k] += c
            for t, ft in enumerate(factor):
                nxt[i + t] += c * ft >> bits
        coeffs = nxt
    half = 1 << (bits - 1)
    rounded = []
    for c in coeffs:
        r = (c + half) >> bits
        residual = max(residual, abs(c - (r << bits)) / one)
        rounded.append(r)
    return (rounded if root == 1 else _cubed_roots(rounded)), residual


def _poly_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for k, y in enumerate(g):
            out[i + k] += x * y
    return out


def _cubed_roots(coeffs):
    """The monic integer polynomial whose roots are the cubes of the roots of `coeffs`.

    Write H(X) = A(X^3) + X B(X^3) + X^2 C(X^3).  The product of H(X),
    H(zeta X) and H(zeta^2 X) over the cube roots of unity zeta is
    A^3 + Y B^3 + Y^2 C^3 - 3 Y A B C in Y = X^3, exactly over the integers.
    Coefficients are lowest degree first.
    """
    A, B, C = (coeffs[i::3] for i in range(3))
    out = [0] * len(coeffs)
    terms = [(0, 1, _poly_mul(_poly_mul(A, A), A)), (1, 1, _poly_mul(_poly_mul(B, B), B)),
             (2, 1, _poly_mul(_poly_mul(C, C), C)), (1, -3, _poly_mul(_poly_mul(A, B), C))]
    for shift, scale, f in terms:
        for i, x in enumerate(f):
            out[i + shift] += scale * x
    return out


def hilbert_class_poly(D) -> ClassPolynomial:
    """The class polynomial of the order of discriminant D, |D| <= 1e5.

    For 3 not dividing D, it is computed from the class polynomial of
    gamma_2 = j^(1/3), at a third of the bits; for 3 dividing D, from j.
    The working precision is the one the reduced forms need.
    """
    value = getattr(D, "value", D)
    where = f"hilbert_class_poly(D={value}): "
    if -value > MAX_ABS_DISC:
        raise ValueError(f"{where}|D| = {-value} exceeds cap {MAX_ABS_DISC}")
    disc = quadform.as_discriminant(D)
    forms = quadform.reduced_forms(disc)
    root = 1 if disc.value % 3 == 0 else 3
    precision = _precision_for(forms, root)
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"{where}needs {precision} bits, over the cap {MAX_PRECISION_BITS}")
    for retry in range(_MAX_RETRIES + 1):
        if retry:
            precision *= 2
        coeffs, residual = _expand_at(forms, precision, root)
        if residual < 0.25:
            return ClassPolynomial(tuple(coeffs))
        if 2 * precision > MAX_PRECISION_BITS:
            break
    raise ArithmeticError(
        f"{where}rounding residual {residual} at {precision} bits is not below 0.25"
    )


def hilbert_mod_p(D, field: PrimeField) -> PolyOverFp2:
    """Coefficientwise reduction of the class polynomial mod the field's p."""
    return PolyOverFp2(field, hilbert_class_poly(D).coefficients)


def _canonical_cycle(seq: tuple) -> tuple:
    """Least representative of a cycle under rotation and reversal."""
    return min(base[k:] + base[:k] for base in (seq, seq[::-1]) for k in range(len(seq)))


def locate_rim_vertices(D, p: int, ell: int, *, modpoly_dir: str | None) -> list[tuple]:
    """Thread the mod-p class polynomial roots into cycles of the isogeny graph.

    First, before any class polynomial or graph, it refuses |D| over the
    class polynomial cap, a class number over the root-finding cap, an ell
    whose Phi_ell is neither embedded nor readable from `modpoly_dir`, an
    ell that does not split in D (no class above ell), and a p that divides
    the conductor or splits in the field (Deuring's conditions for
    supersingular roots).  The ell = 2 graph's own refusals come next.  Its
    breadth-first search, the cheapest that certifies supersingular
    vertices, then supplies the vertices v: H_D mod p is divided by (X - v)
    for each as it is reached, and the search stops once H_D mod p is 1.
    If the search runs out first, the whole ell = 2 graph is built, whose
    census and checks name a fault of the graph, and then the order is
    refused.  The roots (with multiplicity) are decomposed into h/r cyclic
    vertex sequences of length r, the order of the class above ell, with
    consecutive vertices u, v adjacent, Phi_ell(u, v) = 0, and for r >= 3
    no turn u -> v -> u over a single edge unless v is j = 0 or 1728.
    Output cycles are canonicalized up to rotation and reversal,
    preferring lexicographically least starting vertices.  Errors name the
    inputs, those of the graph search name build_graph.
    """
    from . import ssgraph  # ssgraph imports this module for its CM seed

    with _named_errors(D, p, ell):
        value = getattr(D, "value", D)
        if -value > MAX_ABS_DISC:
            raise ValueError(f"|D| = {-value} exceeds cap {MAX_ABS_DISC}")
        disc = quadform.as_discriminant(D)
        h = quadform.class_number(disc)
        if h > MAX_ROOT_DEGREE:
            raise ValueError(
                f"class number h({disc.value}) = {h} exceeds the root-finding "
                f"degree cap {MAX_ROOT_DEGREE}"
            )
        phi = resolve_modular_polynomial(ell, modpoly_dir)
        if disc.conductor % ell == 0:
            raise ValueError(f"{ell} divides the conductor of {disc.value}")
        if kronecker_symbol(disc.fundamental, ell) != 1:
            raise ValueError(f"{ell} does not split in discriminant {disc.value}")
        if disc.conductor % p == 0:
            raise ValueError(f"p={p} divides the conductor of {disc.value}")
        if kronecker_symbol(disc.fundamental, p) == 1:
            raise ValueError(
                f"p={p} splits in the field of discriminant {disc.value}; the "
                "reductions of its class polynomial roots are not supersingular"
            )
    search = ssgraph.bfs(p, 2, None)
    with _named_errors(D, p, ell):
        field = PrimeField(p)
        c = list(hilbert_mod_p(disc, field).coeff_pairs())
    # Deuring: every root of H_D mod p is a supersingular j-invariant, so
    # dividing out (X - v) for each vertex v as the search finds it leaves
    # the constant 1, and the search stops there.
    count, seen = {}, set()
    for v, roots in search:
        for w in (v, *roots):
            if w not in seen:
                seen.add(w)
                m, c = _deflate(c, w, p, field.non_residue)
                if m:
                    count[w] = m
        if c == [(1, 0)]:
            break
    else:
        # the search ran out: the whole graph's census and checks name a
        # fault of the graph before the order is refused
        ssgraph.build_graph(p, 2)
    with _named_errors(D, p, ell):
        if c != [(1, 0)]:
            raise ValueError(
                f"H_{disc.value} mod {p} keeps a factor of degree {len(c) - 1} with no "
                f"supersingular root; the order of discriminant {disc.value} fails the "
                "nonsplit condition"
            )
        return _thread_rims(disc, field, phi, count)


@contextmanager
def _named_errors(D, p: int, ell: int):
    """Prefix errors raised inside with `locate_rim_vertices(D=…, p=…, ell=…): `."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        where = f"locate_rim_vertices(D={getattr(D, 'value', D)}, p={p}, ell={ell}): "
        exc.args = (where + str(exc),)
        raise


def _thread_rims(disc, field, phi, count):
    p, n = field.p, field.non_residue
    sigma = quadform.prime_form(disc, phi.level)
    r = quadform.form_order(disc, sigma)
    total = sum(count.values())
    if total % r:
        raise ValueError(f"{total} roots cannot split into cycles of length {r}")

    # The search runs on the distinct roots, numbered in the order of their
    # (a, b) keys.  rows[k] maps each root adjacent to root k to its edge
    # multiplicity, its multiplicity as a root of Phi_ell(X, keys[k]).
    keys = sorted(count)
    phi_rows = reduce_mod_p(phi, p)
    rows = []
    for u in keys:
        f, row = instantiate(phi_rows, u, p, n), {}
        for k, v in enumerate(keys):
            m, f = _deflate(f, v, p, n)
            if m:
                row[k] = m
        rows.append(row)
    free = {k for k, v in enumerate(keys) if v in ((0, 0), (1728 % p, 0))}
    cycles = _thread_cycles([count[v] for v in keys], rows, r, free)
    if cycles is None:
        raise ValueError(
            f"no consistent threading of the roots of H_{disc.value} into "
            f"{total // r} cycles of length {r}"
        )
    vertices = [QuadExtElement(field, a, b) for a, b in keys]
    return [tuple(vertices[k] for k in cyc)
            for cyc in sorted(_canonical_cycle(c) for c in cycles)]


def _thread_cycles(multiplicities: list[int], rows: list[dict[int, int]], r: int,
                   free: set[int]):
    """Split a multiset of roots into non-backtracking closed walks of length r, or None.

    Root k occurs multiplicities[k] times; rows[k] maps each root adjacent
    to k, in increasing order, to the number of edges from k to it.  For
    r >= 3 a turn u -> v -> u (a loop taken twice when u = v) backtracks
    unless v has at least two edges to u.  The turn is not checked at the
    roots in `free`, j = 0 and 1728: their extra automorphisms break the
    pairing of each edge with one dual, so the rule there is left open.
    The depth-first search makes at most THREADING_BUDGET extension steps
    and raises past them.
    """
    remaining = list(multiplicities)
    cycles: list[tuple] = []
    failed = set()  # multiplicity vectors from which no threading exists
    steps = 0

    def backtracks(u, v, w):
        return w == u and v not in free and rows[v][u] < 2

    def solve():
        state = tuple(remaining)
        if state in failed:
            return False
        # the least remaining root must begin some cycle; both traversal
        # directions are covered by the candidate loop below
        start = next((k for k, m in enumerate(remaining) if m), None)
        if start is None:
            return True
        remaining[start] -= 1
        if extend_and_recurse([start]):
            return True
        remaining[start] += 1
        failed.add(state)
        return False

    def extend_and_recurse(path):
        nonlocal steps
        steps += 1
        if steps > THREADING_BUDGET:
            raise ArithmeticError(
                f"threading {sum(multiplicities)} roots into cycles of length {r} "
                f"exceeded the search budget of {THREADING_BUDGET} steps"
            )
        if len(path) == r:
            if path[0] not in rows[path[-1]] or r >= 3 and (
                    backtracks(path[-2], path[-1], path[0])
                    or backtracks(path[-1], path[0], path[1])):
                return False
            cycles.append(tuple(path))
            if solve():
                return True
            cycles.pop()
            return False
        for k in rows[path[-1]]:
            if not remaining[k] or len(path) > 1 and backtracks(path[-2], path[-1], k):
                continue
            remaining[k] -= 1
            path.append(k)
            if extend_and_recurse(path):
                return True
            path.pop()
            remaining[k] += 1
        return False

    return cycles if solve() else None
