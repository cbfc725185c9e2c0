"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive and self-contained: plain Fraction
arithmetic, textbook row reduction, permutation-expansion determinants,
brute-force enumeration.  None of it imports cagekit.  These were written
and frozen before the corresponding package code was tested against them.
"""

from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)


def rref(rows):
    """Reduced row echelon form of a list of Fraction lists, plus pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel(rows):
    """Right-kernel basis, one vector per free column, pivot entries solved."""
    if not rows:
        return []
    m, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def identity(n):
    """The rows of the n x n identity matrix, as ints."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(column) for column in zip(*rows)]


def matvec(rows, vector):
    """The product of a matrix, given by its rows, and a column vector."""
    return [sum(a * x for a, x in zip(row, vector)) for row in rows]


def det(rows):
    """Permutation expansion; only for the tiny matrices tests use."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += term if inversions % 2 == 0 else -term
    return total


def poly_mod_mul(a, b, modulus):
    """(a*b) mod a monic modulus; all inputs low-to-high Fraction lists."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    modulus = [Fraction(x) for x in modulus]
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    deg_m = len(modulus) - 1
    while len(prod) > deg_m:
        lead = prod.pop()
        if lead:
            shift = len(prod) - deg_m
            for k in range(deg_m):
                prod[shift + k] -= lead * modulus[k]
    prod += [Fraction(0)] * (deg_m - len(prod))
    return prod


def horner(coeffs, x, modulus):
    """The polynomial with the given coefficients, low to high, evaluated
    at x in Q[t]/(modulus) by Horner's rule; x and the result are
    coefficient lists of length deg(modulus)."""
    acc = [Fraction(0)] * (len(modulus) - 1)
    for c in reversed(coeffs):
        acc = poly_mod_mul(acc, x, modulus)
        acc[0] += Fraction(c)
    return acc


def monomial_exponents(degree, nvars):
    """All exponent tuples of the given total degree, as a set."""
    out = set()
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.add(tuple(exp))
    return out


def eval_matrix(points, degree):
    """Monomial evaluation rows over plain Fractions.

    Columns follow descending lexicographic exponent order, which is the
    order the tests also pin monomial_basis to.
    """
    nv = len(points[0])
    cols = sorted(monomial_exponents(degree, nv), reverse=True)
    rows = []
    for p in points:
        row = []
        for exp in cols:
            v = Fraction(1)
            for x, e in zip(p, exp):
                v *= Fraction(x) ** e
            row.append(v)
        rows.append(row)
    return rows


def hilbert(points, k):
    """Rank of the plain-Fraction evaluation matrix; points are tuples."""
    return rank(eval_matrix(points, k))


def elementary_symmetric(values, k):
    """Brute force e_k over all size-k subsets; generic in the value type."""
    total = 0
    for combo in combinations(values, k):
        term = 1
        for v in combo:
            term = term * v
        total = total + term
    return total


def gradient(terms, point):
    """Gradient at the point of sum(c * x^e) over an exponent-tuple ->
    coefficient map, by the power rule; generic in the value type."""
    grad = []
    for var in range(len(point)):
        acc = 0
        for exp, c in terms.items():
            if exp[var] == 0:
                continue
            term = c * exp[var]
            for i, (x, e) in enumerate(zip(point, exp)):
                term = term * x ** (e - 1 if i == var else e)
            acc = acc + term
        grad.append(acc)
    return grad


def grid_hilbert(d, n, k):
    """The t^k coefficient of (1 - t^d)^n / (1 - t)^(n+1), on ints: the
    Hilbert function of a complete intersection of n forms of degree d in
    P^n, such as the d^n nodes of a cage."""
    series = [1] + [0] * k
    for _ in range(n):              # times (1 - t^d)
        series = [c - (series[i - d] if i >= d else 0)
                  for i, c in enumerate(series)]
    for _ in range(n + 1):          # divided by (1 - t): partial sums
        for i in range(1, k + 1):
            series[i] += series[i - 1]
    return series[k]


def validate_per_node(groups, kernel, canonical):
    """Cage validation one node at a time: the kernel of each node's n
    forms, a canonical point per node, then every form at every node.

    groups holds n lists of d coefficient vectors; kernel(rows) returns a
    kernel basis of the rows and canonical(vector) a normalized point, so
    the values may be Fractions or any field elements that compare equal
    to 0 when zero.  When nothing fails, the value of every form at every
    node it does not index is inverted, so over Q[t]/(m) a zero divisor
    raises.  Returns the failures as (kind, index, detail) triples in
    report order and the nodes as (index, point) pairs.
    """
    n, d = len(groups), len(groups[0])
    failures, nodes, seen, values = [], [], {}, []
    for index in product(range(1, d + 1), repeat=n):
        rows = [groups[j][index[j] - 1] for j in range(n)]
        basis = kernel(rows)
        if len(basis) != 1:
            failures.append((
                "degenerate-tuple", index,
                f"hyperplane tuple meets in a {len(basis)}-dimensional "
                "solution space, expected a single point"))
            continue
        point = canonical(basis[0])
        if point in seen:
            failures.append(("coincident-nodes", index,
                             f"node coincides with node {seen[point]}"))
            continue
        seen[point] = index
        nodes.append((index, point))
    for index, point in nodes:
        for j in range(n):
            for i, form in enumerate(groups[j], start=1):
                if i == index[j]:
                    continue
                value = 0
                for c, x in zip(form, point):
                    value = value + c * x
                if value == 0:
                    failures.append((
                        "incidence", index,
                        f"color {j + 1} hyperplane {i}: "
                        f"vanishing pattern violated"))
                else:
                    values.append(value)
    if not failures:
        for value in values:
            # a zero divisor of Q[t]/(m) raises ReducibleModulusError
            1 / value
    return failures, nodes


def canonical_node(groups, index):
    """The node with the given index over plain Fractions: the kernel
    vector of its n forms, scaled so that its last nonzero entry is 1."""
    (vector,) = kernel([groups[j][i - 1] for j, i in enumerate(index)])
    last = next(x for x in reversed(vector) if x != 0)
    return [x / last for x in vector]


def cofactors(groups, index, point):
    """For each color j, the product of the values at the point of the
    forms of color j other than form index[j]: 1 when the color has one
    form.  Forms are coefficient vectors; generic in the value type."""
    out = []
    for forms, hit in zip(groups, index):
        product_ = 1
        for i, form in enumerate(forms, start=1):
            if i != hit:
                value = 0
                for c, x in zip(form, point):
                    value = value + c * x
                product_ = product_ * value
        out.append(product_)
    return out


def pivots_mod(rows, p):
    """Pivot row indices of Gaussian elimination over F_p on lists of
    residues: each column takes the first live row, in input order, with a
    nonzero residue there, and the pivot rows leave the live rows in the
    order picked."""
    live = [(i, [x % p for x in row]) for i, row in enumerate(rows)]
    pivots = []
    # each pass eliminates the leading column and drops it from every row
    while live and live[0][1]:
        hit = next((i for i, (_, r) in enumerate(live) if r[0]), None)
        if hit is None:
            live = [(i, r[1:]) for i, r in live]
            continue
        index, pivot = live.pop(hit)
        inv, tail = pow(pivot[0], -1, p), pivot[1:]
        rest = []
        for i, r in live:
            f = r[0] * inv % p
            rest.append((i, [(a - f * b) % p for a, b in zip(r[1:], tail)]
                         if f else r[1:]))
        live = rest
        pivots.append(index)
    return pivots


def primes_between(low, high):
    """The primes n with low <= n <= high, by a sieve of Eratosthenes on
    that window: every multiple m >= q^2 of each q <= sqrt(high) is
    crossed off."""
    flags = bytearray([1]) * (high - low + 1)
    q = 2
    while q * q <= high:
        start = max(q * q, -(-low // q) * q)
        flags[start - low::q] = bytes(len(range(start, high + 1, q)))
        q += 1
    return [n for n, flag in enumerate(flags, low) if flag and n > 1]


def reduction_rows(modulus):
    """Row k is t^(m+k) reduced mod the monic modulus of degree m, for
    k = 0..m-2, as Fraction lists low to high."""
    m = len(modulus) - 1
    base = [-Fraction(c) for c in modulus[:m]]
    rows = [base]
    for _ in range(m - 2):
        prev = rows[-1]
        nxt = [Fraction(0)] + prev[:m - 1]
        rows.append([a + prev[m - 1] * b for a, b in zip(nxt, base)])
    return rows


def reduced_product(a, b, modulus):
    """a*b in Q[t]/(modulus) on Fraction coefficient lists: the
    convolution, then each t^(m+k) replaced by its reduction row."""
    m = len(modulus) - 1
    conv = [Fraction(0)] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += Fraction(x) * Fraction(y)
    for c, row in zip(conv[m:], reduction_rows(modulus)):
        for j in range(m):
            conv[j] += c * row[j]
    return conv[:m]


def conjugate(coeffs, sigma, modulus):
    """sum_k c_k sigma^k in Q[t]/(modulus): the linear map whose row k is
    the k-th power of sigma, the image of t."""
    m = len(modulus) - 1
    power = [Fraction(1)] + [Fraction(0)] * (m - 1)
    out = [Fraction(0)] * m
    for c in coeffs:
        out = [o + Fraction(c) * x for o, x in zip(out, power)]
        power = reduced_product(power, sigma, modulus)
    return out


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(quo), _trim(rem[:len(b) - 1])


def _poly_mul_sub(u, q, v):
    """u - q*v on Fraction coefficient lists."""
    out = list(u) + [Fraction(0)] * max(len(q) + len(v) - 1 - len(u), 0)
    for i, x in enumerate(q):
        for j, y in enumerate(v):
            out[i + j] -= x * y
    return _trim(out)


def inverse(coeffs, modulus):
    """(g, x) for x in Q[t]/(modulus) by the extended Euclidean algorithm
    over Fractions: g is the degree of gcd(x, modulus) and x^-1 is the
    inverse, None unless g == 0."""
    m = len(modulus) - 1
    r0 = _trim([Fraction(c) for c in coeffs])
    r1 = [Fraction(c) for c in modulus]
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_mul_sub(u0, q, u1)
    # u0 * x = r0 mod the modulus
    if len(r0) != 1:
        return len(r0) - 1, None
    return 0, [c / r0[0] for c in u0] + [Fraction(0)] * (m - len(u0))
