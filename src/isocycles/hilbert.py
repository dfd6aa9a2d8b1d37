"""Hilbert class polynomials from complex CM points, reduction mod p, rim location.

Class polynomials are computed in fixed point on Python ints: a real x is
held as the integer x 2^P (floored), a complex number as a pair of them, at
P = precision + _GUARD_BITS fractional bits.  The precision is
pi sqrt|D| sum 1/a / ln 2 + 64 bits over the reduced forms (a, b, c): the
first term bounds the bits of the largest coefficient of H_D.  For each
form, w = 1/q = exp(pi sqrt|D| / a + i pi b / a) is built from pi (Machin),
sqrt|D| (math.isqrt) and exp(t + i theta) = 2^k exp(r + i theta), so w has a
relative error near 2^-P however large it is (about 2^1433 for the
principal form at |D| near 10^5).  j comes from the eta quotient f = Delta(2 tau) / Delta(tau) = q R,
R = (P(q^2) / P(q))^24, with P from Euler's pentagonal series (Cohen, Alg.
7.6.1), as j = (w / R) (1 + 256 q R)^3: where |q| < 2^-P, q floors to 0 but
j = w / R keeps its relative error near 2^-P.  The guard bits absorb the
floorings of the series and of the expansion, a few units each.

The class polynomial is expanded in real arithmetic: j is real at the
forms that are their own inverse (b = 0, b = a or a = c), and the forms
(a, b, c) and (a, -b, c) give conjugate j-values, so each pair is one real
quadratic factor.  Coefficients are rounded to integers; the rounding
residual, and |Im j| at the real j, must stay below 0.25 or the
computation retries at doubled precision.

Rims need no ell-graph.  `locate_rim_vertices` checks its inputs, then
builds the ell = 2 graph for the supersingular vertex set.  When p neither
divides the conductor of D nor splits in its field, Deuring's reduction
theorem puts every root of H_D mod p among those vertices; dividing H_D mod
p by (X - v) over them finds the roots with multiplicity, and a remainder
other than 1 refutes the premise.  Two roots u, v are joined by as many
edges as v's multiplicity as a root of Phi_ell(X, u), and a bounded
depth-first search threads the roots into rim cycles that do not backtrack
(away from j = 0 and 1728, where the turn is not checked).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from . import quadform
# poly_roots is no longer called here, but perfbench's tracer replaces it in
# every module that imports it, and
# perfbench/tests/test_perfbench.py::test_tracer_wraps_imported_names_and_restores
# asserts hilbert.poly_roots is ff.poly_roots.
from .ff import MAX_ROOT_DEGREE, PolyOverFp2, PrimeField, _deflate, kronecker_symbol, poly_roots
from .modpoly import instantiate_pairs, reduce_mod_p, resolve_modular_polynomial

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


@lru_cache(maxsize=8)
def _constants(bits: int) -> tuple[int, int]:
    """pi (Machin) and ln 2 = 2 atanh(1/3), times 2^bits, within 2 units."""
    extra = bits + 24
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


def _inverse_nome(form, bits: int):
    """w = 1/q = exp(pi sqrt|D| / a + i pi b / a) at the root of `form`, at `bits`.

    With t = pi sqrt|D| / a = k ln 2 + r and theta = pi b / a reduced into
    (-pi, pi], w = 2^k exp(z) for z = r + i theta, |z| < 4.  exp(z) is the
    Taylor series at z / 2^s squared s times; the squarings lose s bits and
    k ln 2 up to 12, so this runs at bits + s + 40 and w keeps a relative
    error near 2^-bits however large it is.
    """
    a, D = form.a, form.discriminant()
    s = math.isqrt(bits) + 2
    work = bits + s + 40
    pi, ln2 = _constants(work)
    t = (pi * math.isqrt(-D << 2 * work) >> work) // a
    k = t // ln2
    m = form.b % (2 * a)
    if m > a:
        m -= 2 * a
    z = ((t - k * ln2) >> s, pi * m // a >> s)
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
    lam = math.pi * math.sqrt(-form.discriminant()) / form.a
    e_max = (bits * math.log(2) - math.log(-math.expm1(-lam))) / lam
    return int((1 + math.sqrt(1 + 24 * e_max)) / 6), e_max


def j_evaluate(form, precision: int = 128):
    """Klein j at the root tau = (-b + i sqrt|D|) / 2a of `form`, as fixed point.

    Returns (re, im) with j = (re + i im) / 2^(precision + _GUARD_BITS).
    With f = Delta(2 tau) / Delta(tau) = q R, R = (P(q^2) / P(q))^24,
    P(q) = prod (1 - q^n) from Euler's pentagonal series (Cohen, Alg.
    7.6.1), j = (256 f + 1)^3 / f = (w / R) (1 + 256 q R)^3 with w = 1/q:
    dividing the large w by R, which is near 1, keeps j's relative error
    near 2^-bits even where q itself is below 2^-bits and rounds to 0.
    """
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"precision {precision} exceeds cap {MAX_PRECISION_BITS}")
    bits = precision + _GUARD_BITS
    one = 1 << bits
    w = _inverse_nome(form, bits)
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
    u = (one + 256 * f[0], 256 * f[1])
    return _mul(_div(w, r24, bits), _mul(_mul(u, u, bits), u, bits), bits)


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h(D) with CM j-invariants as roots."""

    discriminant: quadform.Discriminant
    coefficients: tuple  # lowest degree first, leading 1 included

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _precision_for(forms) -> int:
    D = forms[0].discriminant()
    height = math.pi * math.sqrt(-D) * math.fsum(1 / f.a for f in forms)
    return math.ceil(height / math.log(2)) + 64


def _expand_at(forms, precision):
    """Integer coefficients and rounding residual at one working precision.

    Only the forms with b >= 0 are evaluated.  Where b = 0, a = b or a = c,
    j is real; every other (a, b, c) also stands for (a, -b, c), whose j is
    the complex conjugate, so the pair gives X^2 - 2 Re(j) X + |j|^2.  The
    expansion is real, in fixed point at precision + _GUARD_BITS fractional
    bits; the residual also takes |Im j| at the real j.
    """
    bits = precision + _GUARD_BITS
    one = 1 << bits
    coeffs = [one]
    residual = 0.0
    for f in forms:
        if f.b < 0:
            continue
        re, im = j_evaluate(f, precision)
        if f.b == 0 or f.b == f.a or f.a == f.c:
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
    return rounded, residual


@lru_cache(maxsize=None)
def _class_poly_cached(D: int) -> ClassPolynomial:
    where = f"hilbert_class_poly(D={D}): "
    disc = quadform.Discriminant(D)
    forms = quadform.reduced_forms(disc)
    precision = _precision_for(forms)
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"{where}needs {precision} bits, over the cap {MAX_PRECISION_BITS}")
    for retry in range(_MAX_RETRIES + 1):
        if retry:
            precision *= 2
        coeffs, residual = _expand_at(forms, precision)
        if residual < 0.25:
            return ClassPolynomial(disc, tuple(coeffs))
        if 2 * precision > MAX_PRECISION_BITS:
            break
    raise ArithmeticError(
        f"{where}rounding residual {residual} at {precision} bits is not below 0.25"
    )


def hilbert_class_poly(D) -> ClassPolynomial:
    """The class polynomial of the order of discriminant D, |D| <= 1e5.

    The working precision is the one the reduced forms need.
    """
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    if -disc.value > MAX_ABS_DISC:
        raise ValueError(f"|D| = {-disc.value} exceeds cap {MAX_ABS_DISC}")
    return _class_poly_cached(disc.value)


def hilbert_mod_p(D, field: PrimeField) -> PolyOverFp2:
    """Coefficientwise reduction of the class polynomial mod the field's p."""
    return PolyOverFp2(field, hilbert_class_poly(D).coefficients)


def _canonical_cycle(seq: tuple) -> tuple:
    """Least representative of a cycle under rotation and reversal."""
    return min(base[k:] + base[:k] for base in (seq, seq[::-1]) for k in range(len(seq)))


def locate_rim_vertices(D, p: int, ell: int, *, modpoly_dir: str | None = None) -> list[tuple]:
    """Thread the mod-p class polynomial roots into cycles of the isogeny graph.

    First, before any class polynomial or graph, it refuses a class number
    over the root-finding cap, an ell whose Phi_ell is neither embedded nor
    in `modpoly_dir`, an ell that does not split in D (no class above ell),
    and a p that divides the conductor or splits in the field (Deuring's
    conditions for supersingular roots).  The ell = 2 graph, the cheapest
    build that certifies the supersingular vertex set, then supplies the
    vertices v; H_D mod p is divided by (X - v) for each in turn and must
    deflate to 1.  The roots (with multiplicity) are decomposed into h/r
    cyclic vertex sequences of length r, the order of the class above ell,
    with consecutive vertices u, v adjacent, Phi_ell(u, v) = 0, and for
    r >= 3 no turn u -> v -> u over a single edge unless v is j = 0 or
    1728.  Output cycles are canonicalized up to rotation and reversal,
    preferring lexicographically least starting vertices.  Errors name the
    inputs, those of the graph build name build_graph.
    """
    from . import ssgraph  # ssgraph imports this module for its CM seed

    with _named_errors(D, p, ell):
        disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
        h = quadform.class_number(disc)
        if h > MAX_ROOT_DEGREE:
            raise ValueError(
                f"class number h({disc.value}) = {h} exceeds the root-finding "
                f"degree cap {MAX_ROOT_DEGREE}"
            )
        phi = resolve_modular_polynomial(ell, modpoly_dir)
        if quadform.splitting_type(disc, ell) != quadform.SPLIT:
            raise ValueError(f"{ell} does not split in discriminant {disc.value}")
        if disc.conductor % p == 0:
            raise ValueError(f"p={p} divides the conductor of {disc.value}")
        if kronecker_symbol(disc.fundamental, p) == 1:
            raise ValueError(
                f"p={p} splits in the field of discriminant {disc.value}; the "
                "reductions of its class polynomial roots are not supersingular"
            )
    graph = ssgraph.build_graph(p, 2)
    with _named_errors(D, p, ell):
        return _thread_rims(disc, p, phi, graph)


@contextmanager
def _named_errors(D, p: int, ell: int):
    """Prefix errors raised inside with `locate_rim_vertices(D=…, p=…, ell=…): `."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        where = f"locate_rim_vertices(D={getattr(D, 'value', D)}, p={p}, ell={ell}): "
        exc.args = (where + str(exc),)
        raise


def _thread_rims(disc, p, phi, graph):
    sigma = quadform.prime_form(disc, phi.level)
    r = quadform.form_order(disc, sigma)
    n = graph.field.non_residue

    # Deuring: every root of H_D mod p is a supersingular j-invariant, so
    # dividing out the vertices one by one must leave the constant 1.
    c = list(hilbert_mod_p(disc, graph.field).coeff_pairs())
    count = {}
    for i, v in enumerate(graph.vertices):
        m, c = _deflate(c, v.key(), p, n)
        if m:
            count[i] = m
    if c != [(1, 0)]:
        raise ValueError(
            f"H_{disc.value} mod {p} keeps a factor of degree {len(c) - 1} with no "
            f"supersingular root; the order of discriminant {disc.value} fails the "
            "nonsplit condition"
        )
    total = sum(count.values())
    if total % r:
        raise ValueError(f"{total} roots cannot split into cycles of length {r}")

    # The search runs on the distinct roots, numbered in vertex order, which
    # is the order of their (a, b) keys since graph.vertices is sorted.
    # rows[k] maps each root adjacent to root k to its edge multiplicity,
    # its multiplicity as a root of Phi_ell(X, keys[k]).
    ids = sorted(count)
    keys = [graph.vertices[i].key() for i in ids]
    phi_rows = reduce_mod_p(phi, p)
    rows = []
    for u in keys:
        f, row = instantiate_pairs(phi_rows, u, p, n), {}
        for k, v in enumerate(keys):
            m, f = _deflate(f, v, p, n)
            if m:
                row[k] = m
        rows.append(row)
    free = {k for k, v in enumerate(keys) if v in ((0, 0), (1728 % p, 0))}
    cycles = _thread_cycles([count[i] for i in ids], rows, r, free)
    if cycles is None:
        raise ValueError(
            f"no consistent threading of the roots of H_{disc.value} into "
            f"{total // r} cycles of length {r}"
        )
    return [tuple(graph.vertices[ids[k]] for k in cyc)
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
