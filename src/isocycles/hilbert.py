"""Hilbert class polynomials from complex CM points, reduction mod p, rim location.

j comes from the eta quotient f = Delta(2 tau) / Delta(tau) as
(256 f + 1)^3 / f, with Delta from Euler's pentagonal series (Cohen, Alg.
7.6.1).  The class polynomial is expanded in real arithmetic: j is real at
the forms that are their own inverse (b = 0, b = a or a = c), and the forms
(a, b, c) and (a, -b, c) give conjugate j-values, so each pair is one real
quadratic factor.  Coefficients are
rounded to integers; the rounding residual must stay below 0.25 or the
computation retries at doubled precision.  Rims are found by threading the
mod-p roots into cycles of the isogeny graph by a depth-first search.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from . import quadform
from .ff import MAX_ROOT_DEGREE, PolyOverFp2, PrimeField, kronecker_symbol, poly_roots

MAX_ABS_DISC = 10**5
MAX_PRECISION_BITS = 8192
_GUARD_BITS = 48
_MAX_RETRIES = 3


def j_evaluate(tau, precision: int = 128):
    """Klein j-invariant at tau (upper half plane) as an mpmath complex.

    Uses j = (256 f + 1)^3 / f with the eta quotient
    f = Delta(2 tau) / Delta(tau) = q (P(q^2) / P(q))^24, P(q) = prod (1 - q^n)
    (Cohen, Alg. 7.6.1).  P comes from Euler's pentagonal series, truncated
    once its tail drops below 2^-precision.
    """
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"precision {precision} exceeds cap {MAX_PRECISION_BITS}")
    with mp.workprec(precision + _GUARD_BITS):
        tau = mp.mpc(tau)
        if mp.im(tau) <= 0:
            raise ValueError("tau must have positive imaginary part")
        q = mp.expjpi(2 * tau)
        absq = abs(q)
        # the terms q^e with e >= e_max sum to less than 2^-(precision + 16) / 24
        e_max = (((precision + 16) * mp.ln(2) + mp.ln(24) - mp.ln(1 - absq))
                 / -mp.ln(absq))
        # P(q) = 1 + sum_{n >= 1} (-1)^n (q^(n(3n-1)/2) + q^(n(3n+1)/2));
        # P(q^2) sums the squares of the same terms
        p1 = p2 = mp.mpc(1)
        lo, qn, q_odd, q2 = q, q, q**3, q * q  # q^(n(3n-1)/2), q^n, q^(2n+1)
        n, e_lo, sign = 1, 1, -1
        while e_lo < e_max:
            hi = lo * qn
            p1 += sign * (lo + hi)
            if 2 * e_lo < e_max:
                p2 += sign * (lo * lo + hi * hi)
            lo = hi * q_odd
            qn *= q
            q_odd *= q2
            n, sign = n + 1, -sign
            e_lo = n * (3 * n - 1) // 2
        f = q * (p2 / p1) ** 24
        return (256 * f + 1) ** 3 / f


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial of degree h(D) with CM j-invariants as roots."""

    discriminant: quadform.Discriminant
    coefficients: tuple  # lowest degree first, leading 1 included

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_text(self) -> str:
        return f"{self.discriminant.value}: " + " ".join(str(c) for c in self.coefficients)


def _precision_for(forms, min_precision: int) -> int:
    D = forms[0].discriminant()
    height = mp.pi * mp.sqrt(-D) * mp.fsum(mp.mpf(1) / f.a for f in forms)
    return max(int(mp.ceil(height / mp.ln(2))) + 64, min_precision)


def _expand_at(forms, D, precision):
    """Integer coefficients and rounding residual at one working precision.

    Only the forms with b >= 0 are evaluated.  Where b = 0, a = b or a = c,
    j is real; every other (a, b, c) also stands for (a, -b, c), whose j is
    the complex conjugate, so the pair gives X^2 - 2 Re(j) X + |j|^2.  The
    expansion is real; the residual also takes |Im j| at the real j.
    """
    with mp.workprec(precision + _GUARD_BITS):
        sqrt_d = mp.sqrt(-D)
        coeffs = [mp.mpf(1)]
        residual = mp.mpf(0)
        for f in forms:
            if f.b < 0:
                continue
            j = j_evaluate(mp.mpc(-f.b, sqrt_d) / (2 * f.a), precision)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                residual = max(residual, abs(j.imag))
                factor = (-j.real,)
            else:
                factor = (j.real**2 + j.imag**2, -2 * j.real)
            k = len(factor)
            nxt = [mp.mpf(0)] * (len(coeffs) + k)
            for i, c in enumerate(coeffs):
                nxt[i + k] += c
                for t, ft in enumerate(factor):
                    nxt[i + t] += c * ft
            coeffs = nxt
        rounded = []
        for c in coeffs:
            r = mp.nint(c)
            residual = max(residual, abs(c - r))
            rounded.append(int(r))
        return rounded, float(residual)


@lru_cache(maxsize=None)
def _class_poly_cached(D: int, min_precision: int) -> ClassPolynomial:
    where = f"hilbert_class_poly(D={D}): "
    disc = quadform.Discriminant(D)
    forms = quadform.reduced_forms(disc)
    precision = _precision_for(forms, min_precision)
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"{where}needs {precision} bits, over the cap {MAX_PRECISION_BITS}")
    for retry in range(_MAX_RETRIES + 1):
        if retry:
            precision *= 2
        coeffs, residual = _expand_at(forms, D, precision)
        if residual < 0.25:
            return ClassPolynomial(disc, tuple(coeffs))
        if 2 * precision > MAX_PRECISION_BITS:
            break
    raise ArithmeticError(
        f"{where}rounding residual {residual} at {precision} bits is not below 0.25"
    )


def hilbert_class_poly(D, min_precision: int = 0) -> ClassPolynomial:
    """The class polynomial of the order of discriminant D, |D| <= 1e5.

    The working precision is the one the reduced forms need, and at least
    `min_precision` bits.
    """
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    if -disc.value > MAX_ABS_DISC:
        raise ValueError(f"|D| = {-disc.value} exceeds cap {MAX_ABS_DISC}")
    return _class_poly_cached(disc.value, min_precision)


def hilbert_mod_p(D, p: int, field: PrimeField | None = None,
                  min_precision: int = 0) -> PolyOverFp2:
    """Coefficientwise reduction of the class polynomial mod p."""
    if field is None:
        field = PrimeField(p)
    elif field.p != p:
        raise ValueError("field does not match p")
    poly = hilbert_class_poly(D, min_precision)
    return PolyOverFp2(field, [c % p for c in poly.coefficients])


def _canonical_cycle(seq: tuple) -> tuple:
    """Least representative of a cycle under rotation and reversal."""
    return min(base[k:] + base[:k] for base in (seq, seq[::-1]) for k in range(len(seq)))


def check_root_degree(D) -> quadform.Discriminant:
    """Refuse a discriminant whose class polynomial is over the root-finding cap.

    The class number comes from the reduced forms, so nothing is spent on
    the class polynomial or a graph before the refusal.
    """
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    h = quadform.class_number(disc)
    if h > MAX_ROOT_DEGREE:
        raise ValueError(
            f"class number h({disc.value}) = {h} exceeds the root-finding "
            f"degree cap {MAX_ROOT_DEGREE}"
        )
    return disc


def locate_rim_vertices(D, p: int, ell: int, graph, min_precision: int = 0) -> list[tuple]:
    """Thread the mod-p class polynomial roots into cycles of the isogeny graph.

    Roots (with multiplicity) are intersected with the graph's vertices and
    decomposed into h/r cyclic vertex sequences of length r, where r is the
    order of the class above ell; consecutive vertices must be adjacent.
    Output cycles are canonicalized up to rotation and reversal, preferring
    lexicographically least starting vertices.  Errors name the inputs.
    """
    with locate_stage(D, p, ell):
        return _thread_rims(D, p, ell, graph, min_precision)


@contextmanager
def locate_stage(D, p: int, ell: int):
    """Prefix errors raised inside with `locate_rim_vertices(D=…, p=…, ell=…): `."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        where = f"locate_rim_vertices(D={getattr(D, 'value', D)}, p={p}, ell={ell}): "
        exc.args = (where + str(exc),)
        raise


def _thread_rims(D, p, ell, graph, min_precision):
    disc = check_root_degree(D)
    if graph.p != p or graph.ell != ell:
        raise ValueError("graph was built for different (p, ell)")
    if quadform.splitting_type(disc, ell) != quadform.SPLIT:
        raise ValueError(f"{ell} does not split in discriminant {disc.value}")
    if disc.conductor % p == 0:
        raise ValueError(f"p={p} divides the conductor of {disc.value}")
    if kronecker_symbol(disc.fundamental, p) == 1:
        raise ValueError(
            f"p={p} splits in the field of discriminant {disc.value}; the "
            "reductions of its class polynomial roots are not supersingular"
        )
    sigma = quadform.prime_form(disc, ell)
    r = quadform.form_order(disc, sigma)
    roots = poly_roots(hilbert_mod_p(disc, p, graph.field, min_precision))
    count = {}
    for v in roots:
        if v not in graph.vertex_index:
            raise ValueError(
                f"root {v} of the class polynomial is not a vertex of the graph; "
                f"the order of discriminant {disc.value} fails the nonsplit condition"
            )
        i = graph.vertex_index[v]
        count[i] = count.get(i, 0) + 1
    if len(roots) % r:
        raise ValueError(f"{len(roots)} roots cannot split into cycles of length {r}")

    # The search runs on the distinct roots, numbered in vertex order, which
    # is the order of their (a, b) keys since graph.vertices is sorted.
    ids = sorted(count)
    remaining = [count[i] for i in ids]
    neighbours = [[k for k, j in enumerate(ids) if graph.adjacency[i].get(j, 0) > 0]
                  for i in ids]
    cycles: list[tuple] = []
    failed = set()  # multiplicity vectors from which no threading exists

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
        if len(path) == r:
            if path[0] not in neighbours[path[-1]]:
                return False
            cycles.append(tuple(path))
            if solve():
                return True
            cycles.pop()
            return False
        for k in neighbours[path[-1]]:
            if not remaining[k]:
                continue
            remaining[k] -= 1
            path.append(k)
            if extend_and_recurse(path):
                return True
            path.pop()
            remaining[k] += 1
        return False

    if not solve():
        raise ValueError(
            f"no consistent threading of the roots of H_{disc.value} into "
            f"{len(roots) // r} cycles of length {r}"
        )
    return [tuple(graph.vertices[ids[k]] for k in cyc)
            for cyc in sorted(_canonical_cycle(c) for c in cycles)]
