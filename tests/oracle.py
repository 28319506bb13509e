"""Brute-force definitions that the library's checks are tested against.

Each function reads its property off the definition in the paper, the
module docstrings and the README, over every point, pair or prefix it
names, without the library's shortcuts: weights are ``Fraction`` values
read through ``items()``, points are compared by ``order.key``, and only
public names of ``discretebm`` are used.  They are slow, so tests call
them on small inputs.  A measure is anything whose ``items()`` yields
(point, weight) pairs: a library measure, a coupling (whose points are
(x, y) pairs) or a dict.
"""

import math
from fractions import Fraction
from itertools import combinations

from discretebm import DimensionMismatch, LatticeOperation, box_points, point_add, point_sub

# -- measures -------------------------------------------------------------------


def cdf(mu, order, x) -> Fraction:
    """mu({g : g <= x}), the mass of the lower interval of x under ``order``."""
    kx = order.key(x)
    return sum((w for g, w in mu.items() if order.key(g) <= kx), Fraction(0))


def quantile(mu, order, t):
    """The least support point x of mu with t <= cdf(x), for t in (0, 1]."""
    return min((x for x, _ in mu.items() if t <= cdf(mu, order, x)), key=order.key)


def pushforward(mu, mapping) -> dict:
    """The image of mu under ``mapping``: each image z weighs the total
    weight of the points sent to z.  Images of two dimensions raise
    ``DimensionMismatch``."""
    out: dict = {}
    for p, w in mu.items():
        z = tuple(mapping(p))
        out[z] = out.get(z, 0) + w
    if len({len(z) for z in out}) > 1:
        raise DimensionMismatch("the map sends points to two dimensions")
    return out


def _given_prefix(mu, split) -> dict:
    """For each prefix of positive mass, the law of the block given it,
    where split(point) = (prefix, block)."""
    joint = pushforward(mu, split)
    mass = pushforward(joint, lambda pb: (pb[0],))
    laws: dict = {}
    for (prefix, block), w in joint.items():
        laws.setdefault(prefix, {})[block] = w / mass[(prefix,)]
    return laws


# -- couplings ------------------------------------------------------------------


def quantile_coupling(mu, nu, order) -> dict:
    """The monotone coupling on one ordered block: (x, y) weighs the length
    of the overlap of [F(x-), F(x)) and [G(y-), G(y)), where F and G are
    the cdfs of mu and nu and F(x-) = F(x) - mu(x)."""

    def intervals(m):
        m = dict(m.items())
        return [(x, (high := cdf(m, order, x)) - w, high) for x, w in m.items()]

    out = {}
    for x, a, b in intervals(mu):
        for y, c, d in intervals(nu):
            overlap = min(b, d) - max(a, c)
            if overlap > 0:
                out[(x, y)] = overlap
    return out


def knothe(mu, nu, d) -> dict:
    """The Knothe coupling along the decomposition ``d``: the quantile
    coupling of the first-block marginals, and under each of its pairs
    (a, b), with the pair's weight, the Knothe coupling of the later
    blocks' conditional laws given a and given b."""

    def couple(mu, nu, level):
        if level == d.block_count:
            return {((), ()): Fraction(1)}
        k = d.block_dim(level)
        rest_mu = _given_prefix(mu, lambda x: (x[:k], x[k:]))
        rest_nu = _given_prefix(nu, lambda y: (y[:k], y[k:]))
        heads = [pushforward(m, lambda x: x[:k]) for m in (mu, nu)]
        out = {}
        for (a, b), w in quantile_coupling(*heads, d.order(level)).items():
            for (x, y), v in couple(rest_mu[a], rest_nu[b], level + 1).items():
                out[(a + x, b + y)] = w * v
        return out

    return couple(dict(mu.items()), dict(nu.items()), 0)


def conditional_couplings(pi, d) -> list:
    """(level, prefix_x, prefix_y, law) for every block level of ``d`` and
    every prefix pair of positive mass under pi, where law is the law of
    the level's block pair given the prefixes."""
    pi = dict(pi.items())
    out = []
    for level in range(d.block_count):
        lo = d.offset(level)
        hi = lo + d.block_dim(level)
        laws = _given_prefix(
            pi, lambda p: ((p[0][:lo], p[1][:lo]), (p[0][lo:hi], p[1][lo:hi]))
        )
        out += [(level, px, py, law) for (px, py), law in laws.items()]
    return out


def section(op: LatticeOperation, level: int, px, py):
    """The block section of both maps at frozen prefixes: u, v ->
    T(px + u + 0, py + v + 0) restricted to block ``level``."""
    d = op.decomposition
    lo = d.offset(level)
    hi = lo + d.block_dim(level)
    pad = (0,) * (op.dim - hi)
    return tuple(
        (lambda u, v, t=t: t(px + u + pad, py + v + pad)[lo:hi]) for t in (op.t_minus, op.t_plus)
    )


def first_crossing(pairs, order):
    """The first two pairs of ``pairs``, in their order, of which one is
    strictly below the other in x and strictly above it in y; None when
    the pairs form a chain."""
    for p, q in combinations(pairs, 2):
        (a, b), (c, d) = [(order.key(x), order.key(y)) for x, y in (p, q)]
        if (a < c and b > d) or (a > c and b < d):
            return p, q
    return None


# -- transport terms ------------------------------------------------------------


def _powers(exponents) -> tuple[int, list[int]]:
    """N, the common denominator of (a, b, c, d), and (aN, bN, cN, dN)."""
    values = (exponents.alpha, exponents.beta, exponents.gamma, exponents.delta)
    n = math.lcm(*(v.denominator for v in values))
    return n, [int(v * n) for v in values]


def terms(mu, nu, pi, t_minus, t_plus, exponents) -> dict:
    """At each pair (x, y) of supp pi, the N-th power of the transport term
    kappa-(T-)^c kappa+(T+)^d / (mu(x)^a nu(y)^b) as its two sides
    (kappa-^(cN) kappa+^(dN), mu^(aN) nu^(bN)), where kappa-+ are the
    pushforwards of pi under T-+ and N is the exponents' common
    denominator."""
    _, (a, b, c, d) = _powers(exponents)
    mu, nu, pi = dict(mu.items()), dict(nu.items()), dict(pi.items())
    k_minus = pushforward(pi, lambda p: t_minus(*p))
    k_plus = pushforward(pi, lambda p: t_plus(*p))
    return {
        (x, y): (k_minus[t_minus(x, y)] ** c * k_plus[t_plus(x, y)] ** d, mu[x] ** a * nu[y] ** b)
        for (x, y), _ in pi.items()
    }


def block_terms(mu, nu, pi, op: LatticeOperation, exponents) -> dict:
    """The terms of every conditional block coupling of pi along the
    operation's decomposition, with the conditional laws of mu and nu
    given the prefixes and the block sections at them, keyed by (block,
    x, y) with blocks counted from 1.  On one block these are the terms of
    pi with the operation's maps."""
    d = op.decomposition
    out = {}
    for level, px, py, law in conditional_couplings(pi, d):
        lo = d.offset(level)
        hi = lo + d.block_dim(level)
        mu_c, nu_c = (_given_prefix(m, lambda x: (x[:lo], x[lo:hi])) for m in (mu, nu))
        found = terms(mu_c[px], nu_c[py], law, *section(op, level, px, py), exponents)
        out.update({(level + 1, px + u, py + v): term for (u, v), term in found.items()})
    return out


def _log(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def log_p(mu, nu, pi, op: LatticeOperation, exponents) -> float:
    """log P, where P sums pi(x, y) times the term at (x, y) with the
    operation's maps, the N-th root of its powered sides' ratio."""
    n, _ = _powers(exponents)
    found = terms(mu, nu, pi, op.t_minus, op.t_plus, exponents)
    logs = []
    for p, w in pi.items():
        top, bottom = found[p]
        logs.append(_log(w) + (_log(top) - _log(bottom)) / n)
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def entropy(mu) -> float:
    """Sum of w log w over the atoms of mu: each term is the float of the
    weight w times log(numerator) - log(denominator) of w in lowest terms,
    and the terms are summed by the correctly rounded ``math.fsum``."""
    return math.fsum(float(w) * _log(w) for _, w in mu.items())


def entropy_gap(mu, nu, op: LatticeOperation, exponents) -> float:
    """a H(mu) + b H(nu) - c H(kappa-) - d H(kappa+), with kappa-+ the
    pushforwards of the Knothe coupling along the operation's
    decomposition under T-+, and each exponent taken as a float."""
    pi = knothe(mu, nu, op.decomposition)
    kappas = [pushforward(pi, lambda p, t=t: t(*p)) for t in (op.t_minus, op.t_plus)]
    a, b, c, d = (float(v) for v in (exponents.alpha, exponents.beta, exponents.gamma, exponents.delta))
    return (a * entropy(mu) + b * entropy(nu)) - (c * entropy(kappas[0]) + d * entropy(kappas[1]))


# -- fibers ---------------------------------------------------------------------


def _unit(order):
    """The least point above 0 under ``order``; it is a signed unit vector,
    so the radius-1 box holds it."""
    zero = order.key((0,) * order.dim)
    return min((p for p in box_points(order.dim, 1) if order.key(p) > zero), key=order.key)


def fiber_clauses_hold(law, op: LatticeOperation, level: int, px, py) -> bool:
    """The three fiber clauses of the ``coupling`` module docstring on the
    conditional block coupling ``law`` at block ``level`` and prefixes
    (px, py), with T-+ the block sections there and u the least point
    above 0 in the block order: every fiber of T- and of T+ has at most two
    elements; a two-element fiber is {p, p + (u, 0)} or {p, p + (0, u)},
    across which the other map moves by u; and where the T- and T+ fibers
    through a support pair both have two elements, each element of one is
    an element of the other or differs from one by (u, u) or (-u, -u)."""
    t_minus, t_plus = section(op, level, px, py)
    u = _unit(op.decomposition.order(level))
    zero = (0,) * len(u)
    fibers: list[dict] = [{}, {}]
    for s in law:
        for groups, t in zip(fibers, (t_minus, t_plus)):
            groups.setdefault(t(*s), []).append(s)
    steps = ((u, zero), (zero, u))
    for groups, other in zip(fibers, (t_plus, t_minus)):
        for fiber in groups.values():
            if len(fiber) > 2:
                return False
            # {p, p + (u, 0)} or {p, p + (0, u)}, and the other map moves by u
            if len(fiber) == 2 and not any(
                (point_add(p[0], dx), point_add(p[1], dy)) == q
                and other(*q) == point_add(other(*p), u)
                for p, q in (fiber, fiber[::-1])
                for dx, dy in steps
            ):
                return False
    diagonal = {(zero, zero), (u, u), (point_sub(zero, u), point_sub(zero, u))}

    def aligned(first, second):
        return all(
            any((point_sub(p[0], q[0]), point_sub(p[1], q[1])) in diagonal for q in second)
            for p in first
        )

    for s in law:
        sm, sp = fibers[0][t_minus(*s)], fibers[1][t_plus(*s)]
        if len(sm) == len(sp) == 2 and not (aligned(sm, sp) and aligned(sp, sm)):
            return False
    return True


def fiber_shape_holds(pi, op: LatticeOperation) -> bool:
    """The fiber clauses on every conditional block coupling of pi along
    the operation's decomposition (on one block, on pi itself)."""
    return all(
        fiber_clauses_hold(law, op, level, px, py)
        for level, px, py, law in conditional_couplings(pi, op.decomposition)
    )


# -- operations -----------------------------------------------------------------


def p1_holds(op: LatticeOperation, box_radius: int) -> bool:
    """Translation equivariance T(x + e, y + e) = T(x, y) + e for both maps,
    every pair (x, y) of the radius-r box and every unit vector e; every
    shift is a sum of unit vectors and their negatives."""
    n = op.dim
    box = box_points(n, box_radius)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return all(
        t(point_add(x, e), point_add(y, e)) == point_add(t(x, y), e)
        for t in (op.t_minus, op.t_plus)
        for x in box
        for y in box
        for e in units
    )


def complement_holds(op: LatticeOperation, box_radius: int) -> bool:
    """T-(x, y) + T+(x, y) = x + y for every pair of the radius-r box."""
    box = box_points(op.dim, box_radius)
    return all(
        point_add(op.t_minus(x, y), op.t_plus(x, y)) == point_add(x, y) for x in box for y in box
    )


def p2_holds(op: LatticeOperation, box_radius: int) -> bool:
    """Knothe monotonicity (P2) of ``op`` on the radius-r box of pairs.

    For every block i, every pair of prefixes (a, b) of the box, both pair
    maps and every frozen block point v, the block sections
    u -> T(a + u, b + v)[i] and u -> T(a + v, b + u)[i] (later blocks at 0)
    preserve the block order between every two points of the block box;
    and T(x, y)[i] is unchanged when one later coordinate of x or of y
    moves to any value of [-r, r], for every pair (x, y) of the box.
    """
    d, n, r = op.decomposition, op.dim, box_radius
    maps = (op.t_minus, op.t_plus)
    for i in range(d.block_count):
        key = d.order(i).key
        lo = d.offset(i)
        hi = lo + d.block_dim(i)
        pad = (0,) * (n - hi)
        block = d.order(i).sorted_points(box_points(hi - lo, r))
        prefixes = box_points(lo, r)
        for a in prefixes:
            for b in prefixes:
                for tmap in maps:
                    for v in block:
                        for section_keys in (
                            [key(tmap(a + u + pad, b + v + pad)[lo:hi]) for u in block],
                            [key(tmap(a + v + pad, b + u + pad)[lo:hi]) for u in block],
                        ):
                            # block is sorted, so u_j precedes u_k for j < k
                            for j, first in enumerate(section_keys):
                                if any(first > later for later in section_keys[j + 1 :]):
                                    return False
        box = box_points(n, r) if hi < n else []
        for tmap in maps:
            for x in box:
                for y in box:
                    value = tmap(x, y)[lo:hi]
                    for j in range(hi, n):
                        for c in range(-r, r + 1):
                            x2 = x[:j] + (c,) + x[j + 1 :]
                            y2 = y[:j] + (c,) + y[j + 1 :]
                            if tmap(x2, y)[lo:hi] != value or tmap(x, y2)[lo:hi] != value:
                                return False
    return True


def triangularity_break(t, n: int, lo: int, hi: int, box_radius: int):
    """The first unit step, in scan order, that changes block [lo, hi) of
    the difference map ``t`` on Z^n, as the witness fields of a P2
    triangularity violation; None if there is none.

    The scan reads every difference w of the box [-2r, 2r]^n in
    lexicographic order, and then w moved by +1 and by -1 in each later
    coordinate j >= hi, in that order, also where the move leaves the box.
    The witness pair is x = w + y, y = -(w // 2), both in the radius-r box.
    """
    for w in box_points(n, 2 * box_radius):
        base = t(w)[lo:hi]
        for j in range(hi, n):
            for delta in (1, -1):
                if t(w[:j] + (w[j] + delta,) + w[j + 1 :])[lo:hi] != base:
                    y = tuple(-(c // 2) for c in w)
                    return {"x": point_add(w, y), "y": y, "coordinate": j + 1, "delta": delta}
    return None
