"""Odd/even census of edge-induced subgraphs.

For a graph G and each k, O_k counts the nonempty edge subsets F whose
induced vertex set V(F) (the endpoints of F) has exactly k vertices and
|F| is odd; E_k counts those with |F| even; delta_k = O_k - E_k. The
empty edge set is excluded everywhere, so a profile's odd and even
counts always sum to 2^m - 1.

Four interchangeable engines compute the census:

* ``delta_frontier``  : the default. Counts vertex subsets by a DP along
                        a vertex order with a small frontier, component
                        by component, one pass per polynomial, and turns
                        them into the census by Mobius inversion. Returns
                        the full parity split.
* ``delta_naive``     : visits every subset independently, recomputing
                        V(F) from scratch each time (the reference
                        enumerator, deliberately unclever).
* ``delta_graycode``  : visits subsets in Gray-code order, updating
                        per-vertex incidence counts incrementally, so
                        each step costs O(1) amortized.
* ``delta_by_components``: the same DP, run only as the pass over
                        independent sets, multiplying only the component
                        polynomials W(x) = 1 - D(x). Returns delta only.

Both DP engines compute each polynomial by ``_census``: one pass of
``_vertex_sums`` per component, and one product (``_product``) of the
binomial transforms of these counts. Components often repeat their
counts, and each distinct count vector is transformed once. A factor
that repeats is raised to its power by a recurrence in one pass, and one
that occurs once or twice is folded in. Trailing zeros of the counts are
factors (1 - x): those of repeated counts pool into one power, which
roughly halves the recurrence's work on repeated W_c, and those of a
folded factor join the pool only where that makes its fold cheaper.

The enumeration engines refuse more than EDGE_CAP edges. The DP's cost
grows with the frontier width, not with 2^m; it is estimated before the
DP runs, and refused over DP_SECONDS or DP_BYTES. All counts are plain
Python integers, hence arbitrary precision end to end. Every engine runs
in-process and serially.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import reduce
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import add, mul, sub

from .errors import CapError, EngineDisagreement
from .graph import Graph

EDGE_CAP = 62
IE_EDGE_CAP = 20

# The frontier DP's bounds: its estimated run time in seconds and the
# estimated peak size of its state table in bytes (see ``_plan``).
DP_SECONDS = 60
DP_BYTES = 512 << 20


class DeltaProfile(namedtuple("DeltaProfile", "n odd_counts even_counts delta")):
    """Census of a single graph: arrays indexed by vertex count k in [0, n].

    ``odd_counts`` and ``even_counts`` are None when the engine that
    produced the profile recovers only the difference (the component
    engine), never the parity split. Construction checks that the arrays
    fit together; ``_make`` and ``_replace`` skip those checks.
    """

    __slots__ = ()

    def __new__(cls, n, odd_counts, even_counts, delta):
        self = super().__new__(cls, n, odd_counts, even_counts, delta)
        if self.n < 0:
            raise ValueError(f"n must be at least 0, got {self.n}")
        if len(self.delta) != self.n + 1:
            raise ValueError(f"delta array has length {len(self.delta)}, expected {self.n + 1}")
        if self.delta[0] != 0 or (self.n >= 1 and self.delta[1] != 0):
            raise ValueError("delta must vanish for k < 2 (an edge spans two vertices)")
        if (self.odd_counts is None) != (self.even_counts is None):
            raise ValueError("odd_counts and even_counts must be both present or both absent")
        if self.odd_counts is not None and self.even_counts is not None:
            if len(self.odd_counts) != self.n + 1 or len(self.even_counts) != self.n + 1:
                raise ValueError("count arrays must have length n + 1")
            if any(x < 0 for x in self.odd_counts) or any(x < 0 for x in self.even_counts):
                raise ValueError("subgraph counts cannot be negative")
            if any(o - e != d for o, e, d in zip(self.odd_counts, self.even_counts, self.delta)):
                raise ValueError("delta must equal odd_counts - even_counts elementwise")
        return self


class DeltaPolynomial(namedtuple("DeltaPolynomial", "coeffs")):
    """Integer polynomial with coefficient k weighting vertex count k.

    Used both for D(x) = sum_k delta_k x^k and for its companion
    W(x) = 1 - D(x). W is multiplicative over disjoint unions, which is
    what makes the component engine correct: the vertex sets of edge
    subsets drawn from disjoint parts add, and their parities add.
    ``coeffs`` is the tuple of coefficients.
    """

    __slots__ = ()

    def __mul__(self, other: "DeltaPolynomial") -> "DeltaPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        width = len(a)
        # One pass per coefficient of the shorter factor, each a C-level
        # map over the longer one.
        for j, bj in enumerate(b):
            if bj:
                out[j : j + width] = map(add, out[j : j + width], map(mul, a, repeat(bj)))
        return DeltaPolynomial(tuple(out))


def w_polynomial(profile: DeltaProfile) -> DeltaPolynomial:
    """Companion W(x) = 1 - D(x); coefficient k counts signed subsets, empty set included."""
    coeffs = [-d for d in profile.delta]
    if not coeffs:
        coeffs = [0]
    coeffs[0] += 1
    return DeltaPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# enumeration sweeps


def _naive_census(g: Graph) -> tuple[list[int], list[int]]:
    """Census of every nonempty subset mask, each evaluated from scratch."""
    odd = [0] * (min(g.n, 2 * g.m) + 1)  # |V(F)| <= 2|F|
    even = [0] * len(odd)
    emask = {1 << j: (1 << u) | (1 << v) for j, (u, v) in enumerate(g.edges)}
    for mask in range(1, 1 << g.m):
        s = mask
        vm = 0
        while s:
            b = s & -s
            vm |= emask[b]
            s ^= b
        if mask.bit_count() & 1:
            odd[vm.bit_count()] += 1
        else:
            even[vm.bit_count()] += 1
    return odd, even


def _gray_census(g: Graph) -> tuple[list[int], list[int]]:
    """Census of every nonempty subset, visited in Gray-code order.

    Rank i denotes the subset gray(i) = i ^ (i >> 1). Between rank i-1
    and rank i exactly one edge flips (the lowest set bit of i), and the
    subset's edge parity equals the parity of i itself. The state (edge
    mask, per-vertex incidence counts, current |V(F)|) starts at the
    empty subset of rank 0 and is maintained incrementally. Only vertices
    with an edge have an incidence count.
    """
    odd = [0] * (min(g.n, 2 * g.m) + 1)  # |V(F)| <= 2|F|
    even = [0] * len(odd)
    index = {v: i for i, v in enumerate(g.endpoints())}
    inc = [0] * len(index)
    cur = 0
    k = 0
    elow = {1 << j: (index[u], index[v]) for j, (u, v) in enumerate(g.edges)}
    for i in range(1, 1 << g.m):
        b = i & -i
        u, v = elow[b]
        cur ^= b
        if cur & b:
            t = inc[u]
            if not t:
                k += 1
            inc[u] = t + 1
            t = inc[v]
            if not t:
                k += 1
            inc[v] = t + 1
        else:
            t = inc[u] - 1
            inc[u] = t
            if not t:
                k -= 1
            t = inc[v] - 1
            inc[v] = t
            if not t:
                k -= 1
        if i & 1:
            odd[k] += 1
        else:
            even[k] += 1
    return odd, even


def _padded(n: int, values: list[int]) -> tuple[int, ...]:
    """``values`` followed by zeros up to n + 1 entries."""
    return tuple(chain(values, repeat(0, n + 1 - len(values))))


def _parity_profile(n: int, odd: list[int], even: list[int]) -> DeltaProfile:
    """The profile of the counts for k < len(odd), padded with zeros to k = n.

    Each engine's lists reach only as far as its census can, so the three
    arrays of n + 1 entries are the only ones built.
    """
    return DeltaProfile(n, _padded(n, odd), _padded(n, even), _padded(n, list(map(sub, odd, even))))


def _negate(w: list[int]) -> list[int]:
    """D = 1 - W in place: delta_0 = 0 and delta_k = -W_k, each W_k freed as delta_k is made."""
    w[0] = 0
    for k in range(1, len(w)):
        w[k] = -w[k]
    return w


def _check_edge_cap(m: int) -> None:
    if m > EDGE_CAP:
        raise CapError(f"graph has {m} edges, enumeration engines support at most {EDGE_CAP}")


# ---------------------------------------------------------------------------
# engines


def delta_naive(g: Graph) -> DeltaProfile:
    """Census by plain enumeration of all 2^m - 1 nonempty edge subsets.

    Every subset is evaluated independently of enumeration order; this is
    the reference engine the others are checked against. An edgeless
    graph yields the all-zero profile.
    """
    _check_edge_cap(g.m)
    return _parity_profile(g.n, *_naive_census(g))


def delta_graycode(g: Graph) -> DeltaProfile:
    """Census by Gray-code enumeration; output is identical to delta_naive."""
    _check_edge_cap(g.m)
    return _parity_profile(g.n, *_gray_census(g))


def delta_by_components(g: Graph) -> DeltaProfile:
    """Census via per-component factorization of W(x) = 1 - D(x).

    Each component runs one pass of ``_vertex_sums``, over its independent
    sets only, planned and priced for that pass alone, as for
    ``vc_count_reduction``; the binomial transform of their counts B_t is
    its W polynomial: W_0 = B_0 = 1, and W_k = E_k - O_k for k >= 1. Only
    the W product is formed, so only delta is recovered and odd/even counts
    are marked not computed. Components with equal counts share one
    transform and one power in ``_product``.
    """
    delta = _negate(list(_census(_plan(g, False), False)))
    return DeltaProfile(n=g.n, odd_counts=None, even_counts=None, delta=_padded(g.n, delta))


def _binomial_transform(c: tuple[int, ...]) -> DeltaPolynomial:
    """Coefficients of sum_t c_t x^t (1-x)^(h-t), h = len(c) - 1.

    Coefficient k is sum_t (-1)^(k-t) C(h-t, k-t) c_t; built by Horner's
    rule, r <- r * (1 - x) + c_t x^t, in O(h^2) integer subtractions.
    """
    r: list[int] = []
    for ct in c:
        r = [x - y for x, y in zip(r + [ct], [0] + r)]
    return DeltaPolynomial(tuple(r))


def _product(groups: Counter[tuple[int, ...]]) -> DeltaPolynomial:
    """The product of W = sum_t c_t x^t (1-x)^(h-t), h = len(c) - 1, over ``groups``.

    Each key c is a component's ``_vertex_sums`` (c_0 = 1, so W(0) = 1),
    its value the number of components that share it; equal counts are
    equal factors, so each is transformed once. A vector with z trailing
    zeros gives (1 - x)^z times the transform of the rest, whose value at
    x = 1 is the rest's last count, so no (1 - x) is left: for a W_c,
    z = h_c - alpha_c, alpha_c the independence number. A vector that
    occurs e >= 3 times is transformed without its trailing zeros, and e z
    goes into one pooled power of (1 - x). Let W_j be the distinct bases
    with exponents e_j, Q = prod W_j and R = sum e_j W_j' (Q / W_j). Their
    product F = prod W_j^e_j satisfies Q F' = R F (J. C. P. Miller's
    recurrence for a power series, Knuth, TAOCP Vol. 2, 4.7, taken over
    several bases). Q and R are built together, as each base joins, by the
    product rule: from Q = 1 and R = 0, R <- R W_j + e_j W_j' Q and then
    Q <- Q W_j, so no division is needed. With Q(0) = 1 each coefficient
    of F follows from those before it by one sum:

        k f_k = sum_(i>=1) (u_i - k q_i) f_(k-i),   u_i = i q_i + r_(i-1).

    Building F takes about deg Q * deg F big-integer products, a fold
    sum_j e_j deg W_j passes over it; pooling (1 - x) about halves deg Q
    on repeated W_c. The other factors are folded onto F, in order, by
    ``DeltaPolynomial.__mul__``. On L coefficients, one with alpha + 1
    leading counts and z zeros costs (alpha + z + 1) L products whole, or
    (alpha + 1)(L + z) + z deg Q with its zeros pooled; they are pooled
    only beside a pool and where L > alpha + 1 + deg Q. The threshold 3 is
    measured: 3, 4 and 6 ran alike on repeated W_c, and 2 made products
    of mostly distinct P_c slower. A sum that k does not divide, from a
    repeated vector with c_0 != 1, raises EngineDisagreement.
    """
    bases: Counter[tuple[int, ...]] = Counter()  # repeated counts without their trailing zeros
    z = 0  # the pooled power of (1 - x)
    for c, e in groups.items():
        if e >= 3:
            last = max(t for t, ct in enumerate(c) if ct)
            bases[c[: last + 1]] += e
            z += e * (len(c) - 1 - last)
    length = 1 + sum(e * (len(c) - 1) for c, e in bases.items())  # F's, less the pooled power
    span = (z > 0) + sum(len(c) - 1 for c in bases)  # deg Q
    folds = []  # the factors folded onto F, each as often as it occurs
    for c, e in groups.items():
        if e < 3:
            last = max(t for t, ct in enumerate(c) if ct)
            if z and z + length > last + 1 + span:
                z, c = z + e * (len(c) - 1 - last), c[: last + 1]
            length += e * (len(c) - 1)
            folds += [_binomial_transform(c)] * e
    repeated = [(_binomial_transform(c), e) for c, e in bases.items() if len(c) > 1]
    if z:
        repeated.append((DeltaPolynomial((1, -1)), z))
    q, r = DeltaPolynomial((1,)), DeltaPolynomial(())
    for w, e in repeated:
        slope = DeltaPolynomial(tuple(i * e * c for i, c in enumerate(w.coeffs) if i))
        r = DeltaPolynomial(tuple(map(add, (r * w).coeffs, (slope * q).coeffs)))
        q = q * w
    q_tail = q.coeffs[1:]
    v = [i * qi + ri for i, (qi, ri) in enumerate(zip(q_tail, r.coeffs), 1)]  # u_i - k q_i at k = 0
    f = [1]
    for k in range(1, 1 + sum(e * (len(w.coeffs) - 1) for w, e in repeated)):
        v = list(map(sub, v, q_tail))
        fk, rest = divmod(sum(map(mul, v, reversed(f))), k)
        if rest:
            raise EngineDisagreement("a power of component polynomials has a fractional coefficient")
        f.append(fk)
    return reduce(mul, folds, DeltaPolynomial(tuple(f)))


def _plan(g: Graph, edges: bool) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """(m_c, steps) for each component with an edge, in the DP's order.

    The vertex with the smallest ``growth`` key goes next: the fewest
    vertices it opens on the frontier net of those it closes (v opens if
    it keeps an unprocessed neighbour, and closes each frontier neighbour
    whose last unprocessed neighbour it is), then the most frontier
    neighbours, then the lowest id. A frontier neighbour's key is at most
    (1, -1, v) and any other vertex's is (1, 0, v), so only the frontier's
    unprocessed neighbours compete. A heap per component holds their keys,
    takes a new one whenever a key changes, and is popped until a key is
    current. The frontier empties exactly when a component is done, and
    the lowest unprocessed id goes next. A step (inner, drop, vbit) holds
    the state bits of the vertex's frontier neighbours, the bits freed
    after it, and its own bit (0 if it leaves at once).

    Model, per pass of ``_vertex_sums``: a step reading the 2^w states of
    a w-vertex frontier costs 2^w * (0.6 us + 8 ns * words) and
    2^w * (16 * words + 150) bytes, for two ints per state of that many
    64-bit words. ``_vertex_sums`` holds one int per state, so the byte
    term reads about twice the measured peak where the state table
    dominates, as on complete graphs; it is left as it is because it
    decides which graphs are refused. The slot is that of ``_vertex_sums``
    for the same ``edges``: h + m + 1 bits with ``edges``, the A pass,
    which bounds both passes of ``delta_frontier``. It is h + 1 bits
    without: the W pass alone, whose states are only the independent
    subsets of the frontier, so 2^w bounds them. Folding a component into
    the product over H earlier vertices costs 0.25 us * (H + 1)(h_c + 1).
    That prices a fold over the components; ``_product`` raises repeated
    factors to their powers more cheaply, so the term is an upper bound
    when components repeat. Raises CapError once the running estimate,
    with only the edges seen so far in the slot, passes DP_SECONDS or a
    step passes DP_BYTES.
    """
    adjacency: dict[int, list[int]] = {}  # the neighbours of each vertex with an edge
    for u, v in g.edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    left = {v: len(near) for v, near in adjacency.items()}  # unprocessed neighbours
    todo = set(left)
    frontier: dict[int, int] = {}  # vertex -> its bit in a state mask
    used = 0  # bits held by frontier vertices
    plan = []
    seconds = 0.0
    earlier = 0  # vertices of finished components

    def growth(v: int) -> tuple[int, int, int]:
        net, linked = int(left[v] > 0), 0
        for u in adjacency[v]:
            if u in frontier:
                linked += 1
                net -= left[u] == 1
        return (net, -linked, v)

    for v in sorted(left):
        if v not in todo:
            continue
        keys: list[tuple[int, int, int]] = []  # heap of candidate keys, stale ones included
        steps: list[tuple[int, int, int]] = []
        m = reads = weighted = 0
        while True:
            todo.remove(v)
            size = 1 << len(frontier)  # states the step reads
            inner = drop = 0
            for u in adjacency[v]:
                left[u] -= 1
                if u in frontier:
                    inner |= 1 << frontier[u]
                    if not left[u]:
                        drop |= 1 << frontier.pop(u)
            used &= ~drop
            vbit = 0
            if left[v]:
                vbit = ~used & (used + 1)
                used |= vbit
                frontier[v] = vbit.bit_length() - 1
            # The keys that changed: v's unprocessed neighbours', and that of
            # the last unprocessed neighbour of a frontier vertex next to v.
            for u in adjacency[v]:
                if u in todo:
                    heappush(keys, growth(u))
                elif left[u] == 1:
                    for w in adjacency[u]:
                        if w in todo:
                            break
                    heappush(keys, growth(w))
            steps.append((inner, drop, vbit))
            m += inner.bit_count()
            i = len(steps)
            slot = i + m + 1 if edges else i + 1
            reads += size
            weighted += i * size
            estimate = seconds + 0.6e-6 * reads + 8e-9 * weighted * slot / 64
            estimate += 0.25e-6 * (earlier + 1) * (i + 1)
            nbytes = size * (i * slot // 4 + 150)
            if estimate > DP_SECONDS or nbytes > DP_BYTES:
                raise CapError(
                    f"census DP estimated at {estimate:.1f} s and {nbytes >> 20} MiB or more,"
                    f" at most {DP_SECONDS} s and {DP_BYTES >> 20} MiB are supported"
                )
            if not frontier:
                break
            _, _, v = key = heappop(keys)
            while v not in todo or key != growth(v):
                _, _, v = key = heappop(keys)
        seconds = estimate
        earlier += i
        plan.append((m, steps))
    return plan


def _vertex_sums(steps: list[tuple[int, int, int]], m: int, edges: bool) -> tuple[int, ...]:
    """Sums by size t = 0..h_c over the vertex subsets T of one component.

    With ``edges`` sums 2^e(T) (A_t, e(T) being the edges inside T), and
    without counts independent sets (B_t). The DP runs along the
    component's steps of ``_plan``; a state is which frontier vertices are
    in T, and holds one int with coefficient t in bits [t*slot,
    (t+1)*slot). A vertex joining T shifts a state by slot plus its c
    edges to T; for B_t it joins only where c = 0, so the states are the
    independent subsets of the frontier. The slot is h_c + m_c + 1 bits
    with ``edges``, for A_t < C(h_c, t) * 2^m_c, and h_c + 1 without, so
    no coefficient carries.
    """
    slot = len(steps) + 1 + (m if edges else 0)
    states = {0: 1}
    for inner, drop, vbit in steps:
        nxt: dict[int, int] = {}
        for mask, a in states.items():
            c = mask & inner
            out = mask & ~drop
            # get() and a test, not nxt.get(key, 0) + a: adding to 0 copies
            # a multi-digit int on each first insert.
            prev = nxt.get(out)
            nxt[out] = a if prev is None else prev + a
            if c and not edges:
                continue
            key = out | vbit
            a <<= slot + c.bit_count()
            prev = nxt.get(key)
            nxt[key] = a if prev is None else prev + a
        states = nxt
    total = states[0]
    low = (1 << slot) - 1
    return tuple(total >> (t * slot) & low for t in range(len(steps) + 1))


def _census(plan: list[tuple[int, list[tuple[int, int, int]]]], edges: bool) -> tuple[int, ...]:
    """Coefficients of prod P_c over the plan's components, or of prod W_c without ``edges``.

    The components' ``_vertex_sums`` go to ``_product`` grouped, equal
    counts being equal factors, and each group is transformed there once.
    """
    return _product(Counter(_vertex_sums(steps, m, edges) for m, steps in plan)).coeffs


def delta_frontier(g: Graph) -> DeltaProfile:
    """Census from vertex subsets, by a DP over a narrow vertex order.

    Each component runs two passes of ``_vertex_sums`` along its steps of
    ``_plan``, one per polynomial. Mobius inversion turns its A_t into
    P_c(x) = sum_t A_t x^t (1-x)^(h_c-t), which counts its edge subsets F,
    the empty one included, by x^|V(F)|, and its B_t into W_c(x) likewise.
    Both multiply over components, in ``_product``, which raises a
    repeated factor to its power in one pass. For k >= 1,
    O_k + E_k = P_k and E_k - O_k = W_k: the full parity split,
    identical to delta_graycode's. P is dropped once O is formed, E is
    O + W, and W is negated into delta in place, so at most three arrays
    of counts are held at once.
    """
    plan = _plan(g, True)
    p = _census(plan, True)
    w = list(_census(plan, False))
    del plan
    odd = [0, *((x - y) >> 1 for x, y in zip(p[1:], w[1:]))]
    del p
    even = [0, *map(add, odd[1:], w[1:])]  # E_k = O_k + W_k
    delta = _negate(w)
    return DeltaProfile(g.n, _padded(g.n, odd), _padded(g.n, even), _padded(g.n, delta))


ENGINES = {
    "naive": delta_naive,
    "gray": delta_graycode,
    "components": delta_by_components,
    "frontier": delta_frontier,
}


def inclusion_exclusion_direct(g: Graph) -> int:
    """Literal alternating-sum evaluation of the non-cover count.

    Sums (-1)^(|F|+1) * 2^(n - |V(F)|) over every nonempty edge subset F.
    Oracle grade only: capped at 20 edges. Returns 0 for an edgeless
    graph (an empty union).
    """
    n, m = g.n, g.m
    if m == 0:
        return 0
    if m > IE_EDGE_CAP:
        raise CapError(
            f"graph has {m} edges, the direct inclusion-exclusion oracle supports at most {IE_EDGE_CAP}"
        )
    emask = {1 << j: (1 << u) | (1 << v) for j, (u, v) in enumerate(g.edges)}
    total = 0
    for mask in range(1, 1 << m):
        s = mask
        vm = 0
        while s:
            b = s & -s
            vm |= emask[b]
            s ^= b
        term = 1 << (n - vm.bit_count())
        if mask.bit_count() & 1:
            total += term
        else:
            total -= term
    return total
