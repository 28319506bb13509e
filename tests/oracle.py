"""Brute-force definitions that the library's checks are tested against.

Each function reads its property off the definition in the module
docstrings and the README, over every point or pair of a box, and takes
none of the shortcuts the library takes.  They are slow, so tests call
them on small boxes.
"""

from discretebm import LatticeOperation, box_points


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
                        for section in (
                            [key(tmap(a + u + pad, b + v + pad)[lo:hi]) for u in block],
                            [key(tmap(a + v + pad, b + u + pad)[lo:hi]) for u in block],
                        ):
                            # block is sorted, so u_j precedes u_k for j < k
                            for j, first in enumerate(section):
                                if any(first > later for later in section[j + 1 :]):
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
