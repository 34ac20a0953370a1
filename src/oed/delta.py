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

The plan holds each distinct step list once, with the number of
components that take it: relabelled copies of a component walk to equal
steps, so they have equal counts. Both DP engines compute each
polynomial from one pass of ``_vertex_sums`` per distinct step list,
which returns one int: the component's size polynomial at y = 2^slot.
``_groups`` reads the counts out of it at a slot wide enough that none
carries, and ``_product`` multiplies their binomial transforms.
Components with other steps often repeat their counts too, and each
distinct count vector is transformed once, to its true degree: a W_c
whose independence polynomial vanishes at -1 has a zero top coefficient,
which is dropped. A factor that repeats is raised to its power by a
recurrence in one pass, which stops at the power's true degree, and those
that occur once or twice are multiplied together and folded in once.
Trailing zeros of the counts are factors (1 - x): those of repeated
counts pool into one power, which roughly halves the recurrence's work
on repeated W_c, and those of a folded factor join the pool only where
that makes its fold cheaper. The product is padded with zeros to one
more coefficient than the components' vertices, as the engines expect.

The same DP also gives the cover count, ``vc_count_reduction``: a subset
S of vertices covers when every edge has an endpoint in S, and

    |covers| = 2^n - sum_k delta_k * 2^(n-k) = 2^n * W(1/2),

with W(x) = 1 - D(x) the product of the components' polynomials. A
component's W_c(x) = (1-x)^h_c I_c(x / (1-x)), I_c its independence
polynomial sum_t B_t x^t on h_c vertices, so W_c(1/2) = 2^-h_c sum_t B_t
and the count is 2^(isolated) * prod_c sum_t B_t. Each sum_t B_t = I_c(1)
is the component's W pass run at slot 0, where it returns the total and
no coefficient is packed. It runs once per distinct step list, and its
total is raised to the number of components that take it; no product of
polynomials is formed. An isolated vertex adds no factor to W and one
factor of 2 through 2^n.
This module holds no cover oracle; those are in ``oed.covers``.

The enumeration engines refuse more than EDGE_CAP edges, and a sweep
priced over DP_SECONDS at their measured rate per subset. The DP's cost
grows with the frontier width, not with 2^m; it is estimated before the
DP runs, and refused over DP_SECONDS or DP_BYTES. All counts are plain
Python integers, hence arbitrary precision end to end. Every engine runs
in-process and serially.
"""

from __future__ import annotations

import gc
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import reduce
from heapq import heappop, heappush
from itertools import chain, repeat, zip_longest
from operator import add, mul, sub

from .errors import DP_SECONDS, CapError, EngineDisagreement, check_price
from .graph import Graph

EDGE_CAP = 62

# The frontier DP's bound on the estimated peak size of its state table in
# bytes (see ``_price``); its run time is bounded by DP_SECONDS.
DP_BYTES = 512 << 20

# The enumeration engines' price in seconds per subset, refused over
# DP_SECONDS for all 2^m - 1: about their rates on one core of a 2-CPU x86
# box with Python 3.11, on prism 8 and on random graphs of 16 to 24 edges.
NAIVE_SECONDS = 1.3e-6
GRAY_SECONDS = 0.22e-6


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
        if self.odd_counts is not None:
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
        # Column k sums a_(k-j) b_j over the shorter factor's nonzero b_j,
        # each row a C-level map over the longer one: every coefficient is
        # formed once, and only the factors and the product are held.
        rows = [chain(repeat(0, j), map(mul, a, repeat(bj))) for j, bj in enumerate(b) if bj]
        out = tuple(map(sum, zip_longest(*rows, fillvalue=0)))
        return DeltaPolynomial(out + (0,) * (len(a) + len(b) - 1 - len(out)))


def w_polynomial(profile: DeltaProfile) -> DeltaPolynomial:
    """Companion W(x) = 1 - D(x); coefficient k counts signed subsets, empty set included."""
    coeffs = [-d for d in profile.delta]
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


def _check_sweep(m: int, per_subset: float) -> None:
    """Refuse a sweep of 2^m - 1 subsets past EDGE_CAP, or priced at over DP_SECONDS."""
    if m > EDGE_CAP:
        raise CapError(f"graph has {m} edges, enumeration engines support at most {EDGE_CAP}")
    estimate = ((1 << m) - 1) * per_subset
    check_price(f"sweep of 2^{m} - 1 edge subsets estimated at {estimate:.1f} s", estimate)


# ---------------------------------------------------------------------------
# engines


def delta_naive(g: Graph) -> DeltaProfile:
    """Census by plain enumeration of all 2^m - 1 nonempty edge subsets.

    Every subset is evaluated independently of enumeration order; this is
    the reference engine the others are checked against. An edgeless
    graph yields the all-zero profile. Refused before the sweep when
    priced over DP_SECONDS at NAIVE_SECONDS a subset.
    """
    _check_sweep(g.m, NAIVE_SECONDS)
    return _parity_profile(g.n, *_naive_census(g))


def delta_graycode(g: Graph) -> DeltaProfile:
    """Census by Gray-code enumeration; output is identical to delta_naive.

    Refused before the sweep when priced over DP_SECONDS at GRAY_SECONDS a
    subset.
    """
    _check_sweep(g.m, GRAY_SECONDS)
    return _parity_profile(g.n, *_gray_census(g))


def delta_by_components(g: Graph) -> DeltaProfile:
    """Census via per-component factorization of W(x) = 1 - D(x).

    Each distinct step list of the plan runs one pass of ``_vertex_sums``,
    over its independent sets only, planned and priced for that pass alone,
    as for ``vc_count_reduction``; the binomial transform of a component's
    counts B_t is its W polynomial: W_0 = B_0 = 1, and W_k = E_k - O_k for
    k >= 1. Only the W product is formed, so only delta is recovered and
    odd/even counts are marked not computed. Components with equal counts
    share one transform and one power in ``_product``.
    """
    n = g.n
    plan = _plan(g, "W")
    del g  # freed here where the caller holds no other reference (see cmd_delta)
    groups = _groups(plan, False)
    del plan
    delta = _negate(list(_product(groups).coeffs))
    return DeltaProfile(n=n, odd_counts=None, even_counts=None, delta=_padded(n, delta))


def _binomial_transform(c: tuple[int, ...]) -> DeltaPolynomial:
    """Coefficients of sum_t c_t x^t (1-x)^(h-t), h = len(c) - 1, to its true degree.

    Coefficient k is sum_t (-1)^(k-t) C(h-t, k-t) c_t; built by Horner's
    rule, r <- r * (1 - x) + c_t x^t, in O(h^2) integer subtractions.
    Trailing zero coefficients are dropped: the top one, sum_t c_t (-1)^(h-t),
    is zero whenever a W_c's independence polynomial vanishes at -1.
    """
    r: list[int] = []
    for ct in c:
        r = [x - y for x, y in zip(r + [ct], [0] + r)]
    while r and not r[-1]:
        r.pop()
    return DeltaPolynomial(tuple(r))


def _product(groups: Counter[tuple[int, ...]]) -> DeltaPolynomial:
    """The product of W = sum_t c_t x^t (1-x)^(h-t), h = len(c) - 1, over ``groups``.

    Each key c is a component's counts from ``_groups`` (c_0 = 1, so W(0) = 1),
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
    on repeated W_c. Each transform is taken to its true degree, so where
    a top coefficient vanishes the recurrence stops short of the padded
    degree, at F's true degree. The other factors, those seen once or
    twice, are multiplied together, in order, and their product is folded
    onto F once, all by ``DeltaPolynomial.__mul__``. Whether a folded factor's
    zeros join the pool is decided by the cost of folding it alone: on L
    coefficients, one with alpha + 1 leading counts and z zeros costs
    (alpha + z + 1) L products whole, or (alpha + 1)(L + z) + z deg Q with
    its zeros pooled; they are pooled only beside a pool and where
    L > alpha + 1 + deg Q. The threshold 3 is measured: 3, 4 and 6 ran
    alike on repeated W_c, and 2 made products of mostly distinct P_c
    slower. The result is padded with zeros to 1 + sum e (len(c) - 1)
    coefficients over ``groups``, the length of the product of the padded
    transforms. A sum that k does not divide, from a repeated vector with
    c_0 != 1, raises EngineDisagreement.
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
    product = _power(repeated)
    if folds:
        product = product * reduce(mul, folds)
    return DeltaPolynomial(product.coeffs + (0,) * (length + z - len(product.coeffs)))


def _power(repeated: list[tuple[DeltaPolynomial, int]]) -> DeltaPolynomial:
    """prod W_j^e_j over ``repeated``'s (W_j, e_j), by Miller's recurrence (see ``_product``).

    Its lists are freed when it returns, before ``_product`` folds onto F.
    """
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
    return DeltaPolynomial(tuple(f))


Step = tuple[int, int, int]  # (inner, drop, vbit): see ``_steps``
Plan = Counter[tuple[int, tuple[Step, ...]]]  # (m_c, steps) -> the components that take them


def _plan(g: Graph, pass_: str) -> Plan:
    """Each distinct (m_c, steps) of the components with an edge, with how many take it.

    The keys are in the order of their first component in the walk, the
    steps as one tuple; equal steps fix m_c, so a key is a whole pass of
    ``_vertex_sums``. ``pass_`` names the pass that the plan is priced
    for: "A", the A pass of ``delta_frontier``, which bounds both of its
    passes; "W", the graded W pass of ``delta_by_components``; or "count",
    the W pass of ``vc_count_reduction``. Three stages make the plan:
    ``_neighbours`` gives the endpoints' neighbour lists by rank,
    ``_steps`` one greedy walk over all of them, and ``_price`` prices
    each step as it is made and cuts the walk into components, so a
    refused graph stops partway through its steps. Every component is
    priced, a repeated one too. The cyclic collector is paused while they
    run, as their tables hold no reference cycles: on a large sparse graph
    each of its many new lists would otherwise count towards collections
    that traverse all the lists made before. The caller's setting is
    restored on return and on CapError.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return Counter((m, tuple(steps)) for m, steps in _price(_steps(_neighbours(g)), pass_))
    finally:
        if enabled:
            gc.enable()


def _neighbours(g: Graph) -> list[list[int]]:
    """The neighbour lists of the N endpoints, indexed by their rank in id order.

    The endpoints are ranked as themselves when they are 0..N-1; otherwise
    through a list indexed by id when the largest id is below 2N, and
    through a dict beyond that. So every table of the plan is sized by the
    endpoints, within a factor of 2, not by the largest id; the list or
    dict is freed on return.
    """
    ends = set(chain.from_iterable(g.edges))
    ids = chain.from_iterable(g.edges)
    top = max(ends, default=-1) + 1
    if len(ends) < top:  # the endpoints are not 0..N-1
        rank: list[int] | dict[int, int] = [0] * top if top <= 2 * len(ends) else {}
        for r, v in enumerate(sorted(ends)):
            rank[v] = r
        ids = map(rank.__getitem__, ids)
    near: list[list[int]] = [[] for _ in ends]
    del ends
    for u, v in zip(ids, ids):
        near[u].append(v)
        near[v].append(u)
    return near


def _steps(near: list[list[int]]) -> Iterator[Step]:
    """The steps (inner, drop, vbit) of every component, in the greedy vertex order.

    The vertex with the smallest key goes next: the fewest vertices it
    opens on the frontier net of those it closes (v opens if it keeps an
    unprocessed neighbour, and closes each frontier neighbour whose last
    unprocessed neighbour it is), then the most frontier neighbours, then
    the lowest rank. Only the frontier's unprocessed neighbours compete.
    While v is unprocessed, ``bit[v]`` holds its key as one negative int,
    (opens - closes - 2) * s - 1 - (its frontier neighbours), with s one
    more than the number of vertices. The last term lies in [1 - s, -1],
    so the ints order as the pairs (opens - closes, -(frontier
    neighbours)) do, and the heap's ints ``bit[v] * s + v``, read back as
    v = key % s, order as the triples with the rank last. Each key is kept
    up to date from the counts of its vertex, without a scan of its
    neighbours. A key only falls, and each fall pushes the new key onto
    the heap, so a popped key is current unless its vertex has already
    been taken. When the frontier empties a component is done, and the
    walk starts the next at the lowest rank not yet taken. A step holds
    the state bits of the vertex's frontier neighbours, the bits freed
    after it, and its own bit (0 if it leaves the frontier at once).
    Equal steps are yielded as one tuple: a sparse graph repeats a few
    steps many times.
    """
    s = len(near) + 1
    left = list(map(len, near))  # each vertex's unprocessed neighbours
    bit = [-s - 1] * len(near)  # an unprocessed vertex's key, then its state bit
    shared: dict[Step, Step] = {}
    used = 0  # the bits held by frontier vertices
    for start in range(len(near)):
        if bit[start] >= 0:
            continue
        v = start
        keys: list[int] = []  # heap of candidate keys, stale ones included
        while True:
            # v's bit is 0 while its neighbours are walked, so that the min
            # below picks a frontier neighbour's one unprocessed neighbour.
            bit[v] = inner = drop = 0
            fall = s + 1 if left[v] == 1 else 1  # per unprocessed neighbour; s more if it closes v
            for u in near[v]:
                left[u] -= 1
                if (b := bit[u]) < 0:
                    bit[u] = b - fall if left[u] else b - fall - s  # s more if it no longer opens
                else:
                    inner |= b
                    if not left[u]:
                        drop |= b
                    if left[u] != 1:
                        continue
                    u = min(near[u], key=bit.__getitem__)  # the one left, which would close u
                    bit[u] -= s
                heappush(keys, bit[u] * s + u)
            used &= ~drop
            bit[v] = vbit = ~used & (used + 1) if left[v] else 0
            used |= vbit
            step = inner, drop, vbit
            yield shared.setdefault(step, step)
            if not used:
                break
            while bit[v] >= 0:  # v, just taken, then the vertex of each stale key
                v = heappop(keys) % s


def _price(steps: Iterator[Step], pass_: str) -> Iterator[tuple[int, list[Step]]]:
    """(m_c, steps) for each component of the walk ``steps``, each step priced as it comes.

    A component ends where the bits held by the frontier return to 0.
    Each component is priced as if its pass ran on its own, so where
    ``_plan`` finds components with equal steps, which share one pass, the
    price is an upper bound.
    Model, per pass of ``_vertex_sums``: a step reading the 2^w states of
    a w-vertex frontier costs 2^w * (0.6 us + 8 ns * words) and
    2^w * (16 * words + 150) bytes, for two ints per state of that many
    64-bit words. ``_vertex_sums`` holds one int per state, so the byte
    term reads about twice the measured peak where the state table
    dominates, as on complete graphs; it is left as it is because it
    decides which graphs are refused. A step is priced at ``_slot`` of
    the component so far: for "A" that of the A pass, which bounds both
    passes of ``delta_frontier``; for "W" and "count" that of the W pass
    alone, whose states are only the independent subsets of the frontier,
    so 2^w bounds them. ``vc_count_reduction`` runs the W pass at slot 0,
    one int of about h bits per state, so its price is an upper bound.
    For "A" and "W" (the engines, which multiply the components'
    polynomials), folding a component into the product over H earlier
    vertices costs 0.25 us * (H + 1)(h_c + 1). That prices a fold over
    the components; ``_product`` raises repeated factors to their powers
    more cheaply, so the term is an upper bound when components repeat.
    For "count", which multiplies one int per component, the term is left
    out. The states a step reads are read off the bits that the steps
    before it hold. Raises CapError once the running estimate, summed over
    the components in order and with only the edges seen so far in the
    slot, passes DP_SECONDS or a step passes DP_BYTES.
    """
    # The pass's slot rule, and 1 if it prices the fold term, else 0.
    edges, fold = {"A": (True, 1), "W": (False, 1), "count": (False, 0)}[pass_]
    seconds, earlier = 0.0, 0  # earlier: the vertices of finished components
    component: list[Step] = []
    used = m = reads = weighted = 0
    for step in steps:
        component.append(step)
        i = len(component)
        inner, drop, vbit = step
        size = 1 << used.bit_count()  # states the step reads
        used = used & ~drop | vbit
        m += inner.bit_count()
        slot = _slot(i, m, edges)
        reads += size
        weighted += i * size
        estimate = seconds + 0.6e-6 * reads + 8e-9 * weighted * slot / 64
        estimate += fold * 0.25e-6 * (earlier + 1) * (i + 1)  # the fold term
        nbytes = size * (i * slot // 4 + 150)
        if estimate > DP_SECONDS or nbytes > DP_BYTES:
            raise CapError(
                f"census DP estimated at {estimate:.1f} s and {nbytes >> 20} MiB or more,"
                f" at most {DP_SECONDS} s and {DP_BYTES >> 20} MiB are supported"
            )
        if not used:
            yield m, component
            seconds, earlier, component = estimate, earlier + i, []
            m = reads = weighted = 0


def _slot(h: int, m: int, edges: bool) -> int:
    """Bits per coefficient of ``_vertex_sums`` on h vertices and m edges.

    h + m + 1 with ``edges``, as A_t < C(h, t) * 2^m, and h + 1 without,
    as B_t <= C(h, t), so no coefficient carries into the next.
    """
    return h + m + 1 if edges else h + 1


def _vertex_sums(steps: tuple[Step, ...], slot: int, edges: bool) -> int:
    """One component's sum_t c_t y^t at y = 2^slot, as one int.

    With ``edges`` c_t is A_t, the sum of 2^e(T) over its t-vertex subsets
    T, e(T) being the edges inside T; without, it is B_t, the number of
    independent T. The DP runs along the component's steps of ``_plan``; a
    state is which frontier vertices are in T, and holds one int. A vertex
    joining T shifts a state by slot plus its c edges to T; for B_t it
    joins only where c = 0, so the states are the independent subsets of
    the frontier. At slot 0 the int is the plain total sum_t c_t.
    """
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
    return states[0]


def _groups(plan: Plan, edges: bool) -> Counter[tuple[int, ...]]:
    """Each distinct count vector (A_t, or B_t without ``edges``) of the plan's components.

    Its value is the number of components that share it, so ``_product``
    transforms each once. ``_vertex_sums`` runs once per key of the plan,
    whose count it adds, and holds coefficient t in bits
    [t*slot, (t+1)*slot), the slot given by ``_slot``. The keys are read in
    the plan's order, so each count vector comes first where its first
    component is.
    """
    groups: Counter[tuple[int, ...]] = Counter()
    for (m, steps), e in plan.items():
        slot = _slot(len(steps), m, edges)
        total, low = _vertex_sums(steps, slot, edges), (1 << slot) - 1
        groups[tuple(total >> (t * slot) & low for t in range(len(steps) + 1))] += e
    return groups


def vc_count_reduction(g: Graph) -> int:
    """Cover count via the census: 2^n * W(1/2), exactly.

    2^h_c * W_c(1/2) = sum_t B_t, the component's number of independent
    sets, which its W pass returns at slot 0. The pass runs once per
    distinct step list of the plan, and its total is raised to the power
    e, the number of components that take it. The count is the product of
    these powers, by ``_tree_prod``, shifted left by n - h, h the vertices
    with an edge: the sum of e times the steps' length. The plan is priced
    as the graded W pass, so its price bounds this pass.
    """
    plan = _plan(g, "count")
    count = _tree_prod([_vertex_sums(steps, 0, False) ** e for (_, steps), e in plan.items()])
    return count << (g.n - sum(e * len(steps) for (_, steps), e in plan.items()))


def _tree_prod(factors: list[int]) -> int:
    """The product of ``factors``, neighbours multiplied pairwise until one int is left.

    Each round multiplies operands of about equal size, where CPython's
    Karatsuba multiplication pays; a running product multiplies a growing
    int by a small one each time, in time quadratic in the result's size.
    """
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) & 1 else []
        factors = [*map(mul, factors[::2], factors[1::2]), *odd]
    return factors[0] if factors else 1


def delta_frontier(g: Graph) -> DeltaProfile:
    """Census from vertex subsets, by a DP over a narrow vertex order.

    Each distinct step list of ``_plan`` runs two passes of
    ``_vertex_sums``, one per polynomial. Mobius inversion turns its A_t into
    P_c(x) = sum_t A_t x^t (1-x)^(h_c-t), which counts its edge subsets F,
    the empty one included, by x^|V(F)|, and its B_t into W_c(x) likewise.
    Both multiply over components, in ``_product``, which raises a
    repeated factor to its power in one pass. For k >= 1,
    O_k + E_k = P_k and E_k - O_k = W_k: the full parity split,
    identical to delta_graycode's. P is dropped once O is formed and W
    once E = O + W is, so at most three arrays of counts are held at once.
    """
    n = g.n
    plan = _plan(g, "A")
    del g
    p = _product(_groups(plan, True)).coeffs
    w = _product(_groups(plan, False)).coeffs
    del plan
    odd = [0, *((x - y) >> 1 for x, y in zip(p[1:], w[1:]))]
    del p
    even = [0, *map(add, odd[1:], w[1:])]  # E_k = O_k + W_k
    del w
    return _parity_profile(n, odd, even)


ENGINES = {
    "naive": delta_naive,
    "gray": delta_graycode,
    "components": delta_by_components,
    "frontier": delta_frontier,
}
