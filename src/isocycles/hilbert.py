"""Hilbert class polynomials from complex CM points, reduction mod p, rim location.

Coefficients are produced analytically (Eisenstein series E4 and the
discriminant q-product at high working precision) and rounded to
integers; the rounding residual must stay below 0.25 or the computation
retries at doubled precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from . import quadform
from .ff import (MAX_ROOT_DEGREE, PolyOverFp2, PrimeField, QuadExtElement,
                 kronecker_symbol, poly_roots)

MAX_ABS_DISC = 10**5
MAX_PRECISION_BITS = 8192
_GUARD_BITS = 48
_MAX_RETRIES = 3
_MIN_PRECISION = 0


def set_minimum_precision(bits: int):
    """Raise the floor on working precision for class polynomial expansion."""
    global _MIN_PRECISION
    _MIN_PRECISION = max(0, int(bits))
    _class_poly_cached.cache_clear()


def j_evaluate(tau, precision: int = 128):
    """Klein j-invariant at tau (upper half plane) as an mpmath complex.

    Uses j = E4^3 / Delta with the q-expansions truncated once the tail
    drops below 2^-precision.
    """
    if precision > MAX_PRECISION_BITS:
        raise ValueError(f"precision {precision} exceeds cap {MAX_PRECISION_BITS}")
    with mp.workprec(precision + _GUARD_BITS):
        tau = mp.mpc(tau)
        if mp.im(tau) <= 0:
            raise ValueError("tau must have positive imaginary part")
        q = mp.expjpi(2 * tau)
        absq = abs(q)
        lam = -mp.ln(absq)
        target = (precision + 16) * mp.ln(2)
        n_terms = max(int(mp.ceil(target / lam)) + 8, 16)
        while n_terms * lam < target + mp.ln(240) + 4 * mp.ln(n_terms) - mp.ln(1 - absq):
            n_terms += 8
        qn = q
        e4 = mp.mpc(1)
        eta_prod = mp.mpc(1)
        for n in range(1, n_terms + 1):
            e4 += 240 * n**3 * qn / (1 - qn)
            eta_prod *= 1 - qn
            qn *= q
        delta = q * eta_prod**24
        return e4**3 / delta


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


def _precision_for(forms) -> int:
    D = forms[0].discriminant()
    height = mp.pi * mp.sqrt(-D) * mp.fsum(mp.mpf(1) / f.a for f in forms)
    return max(int(mp.ceil(height / mp.ln(2))) + 64, _MIN_PRECISION)


def _expand_at(forms, D, precision):
    with mp.workprec(precision + _GUARD_BITS):
        sqrt_d = mp.sqrt(mp.mpc(D))
        coeffs = [mp.mpc(1)]
        for f in forms:
            tau = (-f.b + sqrt_d) / (2 * f.a)
            root = j_evaluate(tau, precision)
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] -= c * root
                nxt[i + 1] += c
            coeffs = nxt
        rounded = []
        residual = mp.mpf(0)
        for c in coeffs:
            r = mp.nint(mp.re(c))
            residual = max(residual, abs(mp.re(c) - r), abs(mp.im(c)))
            rounded.append(int(r))
        return rounded, float(residual)


@lru_cache(maxsize=None)
def _class_poly_cached(D: int) -> ClassPolynomial:
    disc = quadform.Discriminant(D)
    forms = quadform.reduced_forms(disc)
    precision = _precision_for(forms)
    for _ in range(_MAX_RETRIES + 1):
        coeffs, residual = _expand_at(forms, D, precision)
        if residual < 0.25:
            return ClassPolynomial(disc, tuple(coeffs))
        precision *= 2
    raise ArithmeticError(
        f"insufficient precision for discriminant {D}: residual {residual}"
    )


def hilbert_class_poly(D) -> ClassPolynomial:
    """The class polynomial of the order of discriminant D, |D| <= 1e5."""
    disc = D if isinstance(D, quadform.Discriminant) else quadform.Discriminant(D)
    if -disc.value > MAX_ABS_DISC:
        raise ValueError(f"|D| = {-disc.value} exceeds cap {MAX_ABS_DISC}")
    return _class_poly_cached(disc.value)


def hilbert_mod_p(D, p: int, field: PrimeField | None = None) -> PolyOverFp2:
    """Coefficientwise reduction of the class polynomial mod p."""
    if field is None:
        field = PrimeField(p)
    elif field.p != p:
        raise ValueError("field does not match p")
    poly = hilbert_class_poly(D)
    return PolyOverFp2(field, [c % p for c in poly.coefficients])


def _canonical_cycle(seq):
    """Least representative under rotation and reversal, by vertex keys."""
    best = None
    n = len(seq)
    for base in (seq, tuple(reversed(seq))):
        for k in range(n):
            rot = base[k:] + base[:k]
            key = tuple(v.key() for v in rot)
            if best is None or key < best[0]:
                best = (key, rot)
    return best[1]


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


def locate_rim_vertices(D, p: int, ell: int, graph) -> list[tuple]:
    """Thread the mod-p class polynomial roots into cycles of the isogeny graph.

    Roots (with multiplicity) are intersected with the graph's vertices and
    decomposed into h/r cyclic vertex sequences of length r, where r is the
    order of the class above ell; consecutive vertices must be adjacent.
    Output cycles are canonicalized up to rotation and reversal, preferring
    lexicographically least starting vertices.
    """
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
    roots = poly_roots(hilbert_mod_p(disc, p, graph.field))
    index = {}
    for v in roots:
        if v not in graph.vertex_index:
            raise ValueError(
                f"root {v} of the class polynomial is not a vertex of the graph; "
                f"the order of discriminant {disc.value} fails the nonsplit condition"
            )
        index[v] = index.get(v, 0) + 1
    if len(roots) % r:
        raise ValueError(f"{len(roots)} roots cannot split into cycles of length {r}")

    adjacency = graph.adjacency
    vidx = graph.vertex_index

    def adjacent(u, v):
        return adjacency[vidx[u]].get(vidx[v], 0) > 0

    remaining = dict(index)
    cycles: list[tuple] = []

    def solve():
        live = [v for v in remaining if remaining[v] > 0]
        if not live:
            return True
        # the least remaining vertex must begin some cycle; both traversal
        # directions are covered by the candidate loop below
        start = min(live)
        remaining[start] -= 1
        if extend_and_recurse([start]):
            return True
        remaining[start] += 1
        return False

    def extend_and_recurse(path):
        if len(path) == r:
            if not adjacent(path[-1], path[0]):
                return False
            cycles.append(tuple(path))
            if solve():
                return True
            cycles.pop()
            return False
        last = path[-1]
        for v in sorted(remaining):
            if remaining[v] == 0 or not adjacent(last, v):
                continue
            remaining[v] -= 1
            path.append(v)
            if extend_and_recurse(path):
                return True
            path.pop()
            remaining[v] += 1
        return False

    if not solve():
        raise ValueError(
            f"no consistent threading of the roots of H_{disc.value} into "
            f"{len(roots) // r} cycles of length {r}"
        )
    return sorted((tuple(_canonical_cycle(c)) for c in cycles),
                  key=lambda c: [v.key() for v in c])
