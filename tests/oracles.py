"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with no imports
from ``pinstairs``: plain continued-fraction evaluation, Zariski's multiplicity
certificate for fibres of a ruling, a neighbour-set search for trees, textbook
elimination for matrix inverses, direct quadratic scans for Markov triples, a
plain breadth-first search of the Markov tree with its companion search, and
finite box-union membership for staircase verdicts.  Tests compare package
output against these.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


# ---------------------------------------------------------------------------
# continued fractions


def eval_chain(entries):
    """Evaluate [b1,...,bm] as b1 - 1/(b2 - 1/(...)) with plain Fractions.

    Returns None when the value is infinite (empty chain or a vanishing
    tail denominator).
    """
    num, den = 1, 0  # projective point at infinity
    for b in reversed(entries):
        num, den = b * num - den, num
    if den == 0:
        return None
    return Fraction(num, den)


def chain_of(n, a):
    """Direct ceiling-division expansion of n/a; independent of the package."""
    out = []
    while a > 0:
        b = -((-n) // a)  # ceil(n/a)
        out.append(b)
        n, a = a, b * a - n
    return out


def is_zero_chain(entries):
    """Whether [b1,...,bk] evaluates to 0 with every proper suffix value
    positive and finite, evaluated right to left as integer pairs num/den."""
    if not entries:
        return False
    num, den = entries[-1], 1
    for b in reversed(entries[:-1]):
        if num * den <= 0:  # a value <= 0 or infinite (den = 0)
            return False
        num, den = b * num - den, num
    return num == 0


def attach_sites(chain):
    """The 1-based sites k at which chain[:k-1] + [b_k - 1] + chain[k:] is a
    zero continued fraction, each tested on a chain of its own: the chain
    left when a -1 hung at site k of a chain with entries >= 2 comes down."""
    return [k for k in range(1, len(chain) + 1)
            if is_zero_chain(chain[:k - 1] + [chain[k - 1] - 1] + chain[k:])]


# ---------------------------------------------------------------------------
# fibres of a ruling


def fibre_certificate(vertices, edges):
    """Zariski's fibre certificate for a tree of rational curves.

    vertices: (id, self-intersection) pairs; edges: id pairs, each meeting
    once.  A fibre F = sum m_v C_v of a ruling has F.C_v = 0 for every v, so
    m spans the kernel of the intersection matrix Q, with every m_v > 0, and
    by adjunction K.F = sum m_v (-2 - C_v^2) = -2.  Returns the primitive
    integer multiplicities {id: m_v} when the kernel of Q, found by Fraction
    elimination, is one-dimensional and spanned by such an m, else None.
    """
    ids = [v for v, _ in vertices]
    at = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for v, s in vertices:
        rows[at[v]][at[v]] = Fraction(s)
    for a, b in edges:
        rows[at[a]][at[b]] = rows[at[b]][at[a]] = Fraction(1)
    pivots = []  # (row, column) of each pivot of the reduced echelon form
    for col in range(n):
        r = next((i for i in range(len(pivots), n) if rows[i][col] != 0), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        piv = rows[k][col]
        rows[k] = [x / piv if x else x for x in rows[k]]
        for i in range(n):
            f = rows[i][col]
            if i != k and f != 0:  # the rows are sparse: skip the zeros
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[k])]
        pivots.append((k, col))
    free = sorted(set(range(n)) - {c for _, c in pivots})
    if len(free) != 1:
        return None
    kernel = [Fraction(0)] * n
    kernel[free[0]] = Fraction(1)
    for r, c in pivots:
        kernel[c] = -rows[r][free[0]]
    scale = 1
    for x in kernel:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    m = [int(x * scale) for x in kernel]
    g = 0
    for x in m:
        g = gcd(g, x)
    m = [x // g for x in m]
    if m[0] < 0:
        m = [-x for x in m]
    if any(x <= 0 for x in m):
        return None
    if sum(x * (-2 - s) for x, (_, s) in zip(m, vertices)) != -2:
        return None
    return dict(zip(ids, m))


def tree_refusal(vertices, edges):
    """Why (vertices, edges) is not a labelled tree, as the refusal message a
    dual graph gives, or None for a tree.  The checks run in order: distinct
    ids, each edge joining two different known ids, distinct edges, n - 1
    edges, and a depth-first search over neighbour sets from the first id
    reaching every vertex."""
    ids = [v for v, _ in vertices]
    if len(set(ids)) != len(ids):
        return "duplicate vertex ids"
    norm = []
    for a, b in edges:
        if a == b or a not in ids or b not in ids:
            return f"bad edge ({a},{b})"
        norm.append((min(a, b), max(a, b)))
    if len(set(norm)) != len(norm):
        return "duplicate edges"
    if ids and len(norm) != len(ids) - 1:
        return "graph is not a tree (wrong edge count)"
    adj = {v: set() for v in ids}
    for a, b in norm:
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = set(ids[:1]), ids[:1]
    while frontier:
        for u in adj[frontier.pop()]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != len(ids):
        return "graph is not a tree (disconnected)"
    return None


# ---------------------------------------------------------------------------
# exact matrix inverses


def gauss_jordan_inverse(rows):
    """Plain Gauss-Jordan over Fraction.  Obviously-correct dense inverse."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for k in range(n):
        if aug[k][k] == 0:
            r = next(i for i in range(k + 1, n) if aug[i][k] != 0)
            aug[k], aug[r] = aug[r], aug[k]
        piv = aug[k][k]
        aug[k] = [x / piv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def montante_inverse(rows):
    """Fraction-free (Bareiss/Montante) Gauss-Jordan inverse of an integer matrix.

    All intermediate values are integers; every division is exact.  Requires
    nonzero leading principal minors (true for the negative-definite matrices
    this oracle is used on).
    """
    n = len(rows)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = aug[k][k]
        if piv == 0:
            raise ZeroDivisionError("zero leading minor")
        for i in range(n):
            if i == k:
                continue
            f = aug[i][k]
            aug[i] = [(piv * x - f * y) // prev for x, y in zip(aug[i], aug[k])]
        prev = piv
    det = aug[n - 1][n - 1]
    return [[Fraction(x, det) for x in row[n:]] for row in aug]


def tridiagonal_elimination_inverse(diag):
    """Exact elimination inverse of tridiag(diag) with unit off-diagonals.

    Forward elimination + back substitution (Thomas sweep) over Fraction,
    one unit column at a time: O(n) per column, usable at n in the hundreds
    where the dense routines above are not.
    """
    n = len(diag)
    sup = [Fraction(0)] * n  # superdiagonal coefficient after elimination
    denoms = [Fraction(0)] * n
    denoms[0] = Fraction(diag[0])
    sup[0] = Fraction(1) / denoms[0]
    for i in range(1, n):
        denoms[i] = Fraction(diag[i]) - sup[i - 1]
        if i < n - 1:
            sup[i] = Fraction(1) / denoms[i]
    cols = []
    for j in range(n):
        y = [Fraction(0)] * n
        y[0] = Fraction(int(j == 0)) / denoms[0]
        for i in range(1, n):
            y[i] = (Fraction(int(j == i)) - y[i - 1]) / denoms[i]
        x = [Fraction(0)] * n
        x[n - 1] = y[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = y[i] - sup[i] * x[i + 1]
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Markov triples by direct search


def brute_markov_triples(bound):
    """All sorted triples a <= b <= c <= bound with a^2+b^2+c^2 = 3abc,
    found by scanning (a, b) and solving the quadratic in c directly."""
    found = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            # c^2 - 3ab c + (a^2 + b^2) = 0
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in (3 * a * b - r, 3 * a * b + r):
                if num % 2 != 0:
                    continue
                c = num // 2
                if b <= c <= bound and a * a + b * b + c * c == 3 * a * b * c:
                    found.add((a, b, c))
    return sorted(found)


def brute_markov_numbers(bound):
    return sorted({x for t in brute_markov_triples(bound) for x in t})


def reference_tree_levels(bound=None):
    """Levels of the mutation tree below (1, 1, 1) as (child, parent, position),
    by plain breadth-first search: every triple of the frontier is mutated at
    each of its three positions, the result sorted, and a set of the triples
    seen drops repeats.  Only children whose maximum is below `bound` (all when
    None) are mutated further."""
    root = (1, 1, 1)
    seen = {root}
    frontier = [root]
    while frontier:
        level = []
        for t in frontier:
            for k in range(3):
                mutated = list(t)
                mutated[k] = 3 * t[(k + 1) % 3] * t[(k + 2) % 3] - t[k]
                child = tuple(sorted(mutated))
                if child not in seen:
                    seen.add(child)
                    level.append((child, t, k + 1))
        yield level
        frontier = [c for c, _, _ in level if bound is None or c[2] < bound]


def reference_search(p, max_depth, levels):
    """The companion search of p over `levels`, those of reference_tree_levels(p),
    as plain data: ("found", q, p - q, x, y) for the first triple holding p, with
    co-entries x <= y and q = 3*x*y^{-1} mod p in [1, p]; ("none",) when the
    levels run out first, and ("cut",) when max_depth levels pass first."""
    if p == 1:
        return "found", 1, 1, 1, 1
    for depth, level in enumerate(levels):
        if max_depth is not None and depth >= max_depth:
            return ("cut",)
        for child, _, _ in level:
            if p in child:
                co = list(child)
                co.remove(p)
                x, y = min(co), max(co)
                q = 3 * x * pow(y, -1, p) % p or p
                return "found", q, p - q, x, y
    return ("none",)


def fibonacci_markov_triple(k):
    """The Markov triple (1, F_{k-2}, F_k) for an odd k >= 3, which lies at
    depth (k - 1)/2 of the tree."""
    fib = [0, 1]
    while len(fib) <= k:
        fib.append(fib[-1] + fib[-2])
    u, p = fib[k - 2], fib[k]
    assert 1 + u * u + p * p == 3 * u * p
    return 1, u, p


def fibonacci_markov_pair(k):
    """(F_k, {q, F_k - q}) for an odd k >= 5, read off the Markov triple
    (1, F_{k-2}, F_k) with q = 3 * F_{k-2} * 1^{-1} mod F_k."""
    _, u, p = fibonacci_markov_triple(k)
    q = 3 * u % p
    return p, {q, p - q}


# ---------------------------------------------------------------------------
# staircase membership from an explicit box list


def box_union_verdict(boxes, alpha, beta):
    """Membership of (alpha, beta) in a union of open boxes (0,a) x (0,b).

    boxes: iterable of (a_sup, b_sup) Fractions.  Returns True/False; the
    caller is responsible for only using this inside the visible range.
    """
    return any(alpha < a and beta < b for a, b in boxes)
