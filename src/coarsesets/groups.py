"""Computable group carriers with canonical element encodings.

Four built-in families cover every construction in the toolkit: the
integers ``z``, integer lattices ``z^d``, the restricted direct sum of
Z/2 ``z2sum:m`` (finite-support bit masks, rendered as bit strings of
width m), and free groups ``free:k`` (reduced words, uppercase letters
are inverses).

Elements are plain payloads (int, tuple of ints, int bit mask, str);
all operations live on the Group object, which is immutable.  Everything
that differs between families (arithmetic, encodings, word balls, the
finite windows, the budget ladders and window growth of z2sum:m and of
free:k from rank 2 on, the default window, the bulk translate, interior,
ball-size (a list in the points' order), chain-partition and
overlap-size kernels, and z's quotient pool and overlap sizes read from
one bit mask of the sample) is a method or attribute of the family's
Group subclass, so a new family is one new subclass.  Every family has
its own ``translates``, and free:k its own ``right_translates``, so none
pays a ``mul`` call per element.  ``ball_size_sweep`` is generic: it
sizes windows at every word radius 0..R in one pass sphere by sphere,
each sphere sized by the family's ``ball_sizes`` (two set probes per
point on z).  A window is its integer extent, and
the group answers every question about it.  ``window_elements``
generates it in ``sort_key`` order, which a window sample keeps as its
``ordered`` tuple, so no window is ever sorted.  ``interior`` is its one
membership rule: the elements whose margin word ball the window holds,
margin 0 meaning the elements in the window.
"""

from __future__ import annotations

import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, compress, islice, product, repeat
from math import comb, gcd
from operator import add, itemgetter, neg, or_, xor

WINDOW_CAP = 10**7


class GroupError(ValueError):
    """Malformed element encoding or mismatched group family."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured cap."""


@dataclass(frozen=True)
class Group:
    """Base class holding the rules families share; subclasses implement
    the carrier operations and state only how their geometry differs."""

    default_extent = None        # window extent of recipes that name none
    radius_separator = ","       # between the elements of a radius literal

    @property
    def spec(self):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def render(self, el):
        raise NotImplementedError

    def sort_key(self, el):
        """The total order of ``ordered`` and of every rendered list: the
        element's own order, except on free:k."""
        return el

    def sorted(self, elements):
        """``elements`` as a list in ``sort_key`` order, sorted without a
        Python key call (the ``sorted`` called here is the builtin)."""
        return sorted(elements)

    def norm(self, el):
        """Word length over ``generators()``."""
        raise NotImplementedError

    def norm_sorted(self, elements, cap=None):
        """The first ``cap`` (all when None) elements of the symmetric set
        ``elements`` in (norm, sort_key) order, as a list.  It orders
        every quotient of a sparse sample.  This default sorts by the
        elements' own order, then stably by ``norm``: right when the own
        order is sort_key order within each norm, and fastest when
        ``norm`` is a builtin; with the Python ``norm`` of z^d it still
        beats sorting (norm, el) pairs."""
        ordered = sorted(elements)
        ordered.sort(key=self.norm)
        return ordered[:cap]

    def validate(self, el):
        raise NotImplementedError

    def generators(self):
        """Canonical symmetric generating set (defines word balls)."""
        raise NotImplementedError

    def word_ball(self, r):
        """All elements of word length <= r (r >= 0).  On z and free:k,
        whose window is the word ball, the frozenset of the window's
        ordered walk."""
        return frozenset(self.window_elements(r))

    def word_ball_size(self, r):
        """len(word_ball(r)), without building it."""
        raise NotImplementedError

    # by default (z and free:k) the window of extent n is the word ball of
    # radius n
    def window_size(self, extent):
        return self.word_ball_size(extent)

    def window_elements(self, extent):
        """The window of ``extent`` as an iterable in ``sort_key`` order,
        without repeats: each family generates it in that order (a range
        on z and z2sum, a product of ranges on z^d, a walk sphere by
        sphere on free:k), so no window is ever sorted."""
        raise NotImplementedError

    def interior(self, extent, ordered, margin):
        """The elements of the sorted tuple ``ordered`` whose word ball of
        radius ``margin`` the window of ``extent`` holds, as a tuple in
        their order: the one window rule.  Margin 0 keeps the elements
        in the window, and one element is a 1-tuple.  The word ball of
        radius n holds the margin ball around el iff |el| + margin <= n;
        this default maps ``norm``, the builtin ``len`` on free:k."""
        return tuple(compress(ordered, map(
            (extent - margin).__ge__, map(self.norm, ordered))))

    def enlarged_extent(self, extent):
        # Z-like windows grow by 4x so that generated sets whose blocks
        # grow geometrically (base 3) gain at least one new block
        return extent * 4

    def clamp_ladder(self, ladder):
        """The thickening ladder of a Scale, adapted to this family."""
        return ladder

    def window(self, extent):
        """The window of ``extent``, which is the extent itself: the
        family's finite truncation, symmetric and containing e.  It is
        the interval radius on z, the box radius on z^d, the coordinate
        count on z2sum (all masks on that many coordinates) and the
        word length bound on free:k."""
        extent = int(extent)
        if extent < 0:
            raise GroupError(f"window extent must be >= 0, got {extent}")
        return extent

    def translates(self, g, xs):
        """The left translates g * x for x in the collection ``xs``, in
        its order, as a lazy iterable: the one kernel for left
        translates, which ball sizes, chain components, quotient-pool
        probes and sparse intersections go through.  Each family has
        one that skips a per-element method call: z and z2sum map an
        operator, z^d iterates ``xs`` once per coordinate, and free:k
        concatenates unless the words cancel (an empty g returns ``xs``
        itself)."""
        raise NotImplementedError

    def right_translates(self, xs, g):
        """The right translates x * g for x in the collection ``xs``, in
        its order, as a lazy iterable: the mirror of ``translates`` and
        the one kernel for right translates, which balls, reach, the
        quotient pool's full build and the pwip products go through.
        x.g = g.x in the abelian families, so this default is their
        ``translates``; only free:k has its own."""
        return self.translates(g, xs)

    def quotient_pool(self, elements, cap):
        """The ``cap`` quotients y.x^-1 (x, y in ``elements``) with the
        smallest (norm, sort_key), in that order; ``elements`` is a
        sequence.  A family kernel that forms no pairs
        (``_dense_quotients``: z reads a bit mask) answers first when it
        needs at most 16 word operations per element, of the order of
        the word balls' own pass over the sample.  The word balls
        (``_ball_quotients``) come next; they stop at ``cap`` quotients,
        so on a large sample they cost a pass or two plus the probes.
        When they fail, the kernel runs if it needs at most one word
        operation per pair of the full build, and otherwise all n^2
        products are built and sorted."""
        n = len(elements)
        pool = self._dense_quotients(elements, cap, 16 * n)
        if pool is None:
            pool = self._ball_quotients(elements, cap)
        if pool is None:
            pool = self._dense_quotients(elements, cap, n * n)
        if pool is None:
            pool = self.norm_sorted(set(chain.from_iterable(map(
                self.right_translates, repeat(elements),
                map(self.inv, elements)))), cap)
        return pool

    def _dense_quotients(self, elements, cap, words):
        """``quotient_pool`` from a family kernel that forms no pairs, or
        None when it would need more than ``words`` word operations or
        the family has no such kernel (as here)."""
        return None

    def word_balls_cover(self, elements):
        """True when each element lies in the word ball of its norm."""
        return True

    def _ball_quotients(self, elements, cap):
        """``quotient_pool`` from the word balls of radius 0, 1, 2, 4, ...
        smaller than the sample: the quotients of norm <= r all lie in
        the ball of radius r, so the quotients found shell by shell, each
        shell in (norm, sort_key) order, are the first ones.  A probe
        tests g.x in the sample for x along a stride of about 5n/8
        through ``elements``: on an interval of z, g.x leaves the sample
        for the |g| elements x nearest one end, so a probe in sorted
        order would try all of them before its first hit, for half the g.
        None when the balls reach the sample's size first, after
        len(elements) // 4 absent g (each costs a pass over the sample),
        or when an element lies in no word ball (their union is a group)."""
        n = len(elements)
        if not self.word_balls_cover(elements):
            return None
        members = frozenset(elements)
        stride = max(n * 5 // 8, 1)
        while gcd(stride, n) > 1:
            stride += 1
        probe = [elements[i * stride % n] for i in range(n)]
        kept = []
        absent = 0
        inner = frozenset()
        r = 0
        while self.word_ball_size(r) < n:
            ball = self.word_ball(r)
            for g in self.norm_sorted(ball - inner):
                if members.isdisjoint(self.translates(g, probe)):
                    absent += 1
                    if absent > n // 4:
                        return None
                else:
                    kept.append(g)
                    if len(kept) == cap:
                        return kept
            inner = ball
            r = max(2 * r, 1)
        return None

    def overlap(self, elements, key):
        """A n (n_{q in key} q.A), A the set ``elements``: A itself for
        the empty key, cut by one ``translates`` pass per quotient."""
        out = elements
        for q in key:
            out = out.intersection(self.translates(q, elements))
        return out

    def overlap_counter(self, elements):
        """The map from a quotient tuple ``key`` to the size of
        ``overlap(elements, key)``, for the set ``elements``: the kernel
        for the sizes a sparse search compares.  This default builds
        each overlap; z reads them off one bit mask."""
        return lambda key: len(self.overlap(elements, key))

    def ball_sizes(self, sample, points, steps):
        """The list of |Y n steps.y| for y in the sequence ``points``, in
        its order, Y the sample's set.  With fewer steps than Y, each step
        f translates all the points at once and adds its hits f.y in Y to
        their counts.
        Otherwise, as f.y lies in Y exactly when f lies in Y.y^-1, each
        size right-translates Y by one element."""
        Y = sample.elements
        if len(steps) <= len(Y):
            counts = [0] * len(points)
            # a list per step: nesting one lazy map per step overflows the
            # C stack when there are tens of thousands of steps
            for f in steps:
                counts = list(map(add, counts, map(
                    Y.__contains__, self.translates(f, points))))
            return counts
        inv = self.inv
        return [len(steps.intersection(self.right_translates(Y, inv(y))))
                for y in points]

    def ball_size_sweep(self, windows, radius):
        """For each (sample, points) pair of ``windows``, points lying in
        the sample, the ``ball_sizes`` lists at every word radius
        0..``radius``, in one running pass sphere by sphere.  The list at
        0 is all ones: each point's ball wordball(0).y = {y} lies in its
        sample.  The list at r is the one at r - 1 plus the sizes over the
        sphere wordball(r) - wordball(r - 1), built once for all the
        windows; on z it is {-r, r}, two set probes per point."""
        tables = [[[1] * len(points)] for _, points in windows]
        inner = word_ball_elements(self, 0)
        for r in range(1, radius + 1):
            ball = word_ball_elements(self, r)
            sphere = ball - inner
            for (sample, points), table in zip(windows, tables):
                table.append(list(map(add, table[-1], self.ball_sizes(
                    sample, points, sphere))))
            inner = ball
        return tables

    def chain_component(self, members, a, steps):
        """The elements of ``members`` reachable from a by steps x -> k.x
        (k in ``steps``) that stay inside ``members``: a breadth-first
        search that translates the whole frontier by every step, lazily,
        keeping only the translates in ``members``."""
        steps = steps - {self.identity()}
        seen = {a}
        frontier = [a]
        while frontier:
            found = members.intersection(chain.from_iterable(
                map(self.translates, steps, repeat(frontier))))
            frontier = list(found - seen)
            seen.update(frontier)
        return frozenset(seen)

    def chain_partition(self, sample, steps):
        """The chain components of the sample under the symmetric
        ``steps``, ordered by their least elements."""
        covered = set()
        comps = []
        for a in sample.ordered:
            if a not in covered:
                comp = self.chain_component(sample.elements, a, steps)
                covered |= comp
                comps.append(comp)
        return comps


def _bit_mask(elements, lo, hi):
    """The int whose bit a - lo is set for each integer a in ``elements``,
    all in [lo, hi]: z's one mask, written as a binary numeral."""
    digits = bytearray(b"0") * (hi - lo + 1)     # bit hi - lo first
    for a in elements:
        digits[hi - a] = 49                     # ord("1")
    return int(digits, 2)


@dataclass(frozen=True)
class IntGroup(Group):
    default_extent = 512

    @property
    def spec(self):
        return "z"

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def translates(self, g, xs):
        return map(add, repeat(g), xs)

    def _dense_quotients(self, elements, cap, words):
        # bit d of ``diffs`` is set exactly when some y - x = d >= 0, so its
        # low set bits 0, d1, d2, ... give the pool 0, -d1, d1, -d2, d2, ...
        # in norm_sorted order.  The n shifts and ORs of span-bit integers
        # cost n * span / 64 word operations in C.  n distinct integers
        # span at least n - 1, which declines a large sample without a pass
        n = len(elements)
        if not elements or n * (n - 1) > 64 * words:
            return None
        lo = min(elements)
        span = max(elements) - lo
        if n * span > 64 * words:
            return None
        mask = _bit_mask(elements, lo, lo + span)
        diffs = reduce(or_, map(mask.__rshift__, [a - lo for a in elements]))
        bits = format(diffs, "b")
        top = len(bits) - 1                         # bits[top - d] is bit d
        ds, i = [], top
        while len(ds) < cap // 2 and (i := bits.rfind("1", 0, i)) >= 0:
            ds.append(top - i)
        return [0, *chain.from_iterable(zip(map(neg, ds), ds))][:cap]

    def overlap_counter(self, elements):
        # with bit o of ``mask`` marking lo + o in A, bit o of mask << q
        # marks lo + o in q.A, so each size is one AND and one popcount
        # per quotient: span / 64 word operations in C against the n set
        # probes of a translate, hence the mask up to span 64n.  A
        # quotient past the span meets nothing and builds no shifted mask
        if not elements:
            return super().overlap_counter(elements)
        lo, hi = min(elements), max(elements)
        span = hi - lo
        if span > 64 * len(elements):
            return super().overlap_counter(elements)
        mask = _bit_mask(elements, lo, hi)

        def count(key):
            out = mask
            for q in key:
                if abs(q) > span:
                    return 0
                out &= mask << q if q >= 0 else mask >> -q
            return out.bit_count()

        return count

    def ball_sizes(self, sample, points, steps):
        # steps forming an interval [lo, hi] (every word ball): count the
        # sample in [y + lo, y + hi] by bisection
        if not steps or max(steps) - min(steps) + 1 != len(steps):
            return super().ball_sizes(sample, points, steps)
        lo, hi = min(steps), max(steps)
        order = sample.ordered
        return [bisect_right(order, y + hi) - bisect_left(order, y + lo)
                for y in points]

    def chain_partition(self, sample, steps):
        # steps {-r, ..., r}, with or without 0: the components are the
        # runs of the sorted sample whose consecutive gaps are at most r
        moves = steps - {0}
        r = max(moves, default=0)
        if len(moves) != 2 * r or min(moves, default=0) != -r:
            return super().chain_partition(sample, steps)
        comps = []
        run = []
        for x in sample.ordered:
            if run and x - run[-1] > r:
                comps.append(frozenset(run))
                run = []
            run.append(x)
        if run:
            comps.append(frozenset(run))
        return comps

    def interior(self, extent, ordered, margin):
        # the sorted sample's slice [-(extent - margin), extent - margin]
        bound = extent - margin
        return ordered[bisect_left(ordered, -bound):
                       bisect_right(ordered, bound)]

    def inv(self, a):
        return -a

    def parse(self, text):
        text = text.strip().replace("−", "-")
        try:
            return int(text)
        except ValueError:
            raise GroupError(f"not an integer: {text!r}") from None

    def render(self, el):
        return str(el)

    norm = staticmethod(abs)

    def norm_sorted(self, elements, cap=None):
        # an abs key would allocate an int per element.  In a symmetric
        # set the negatives, read downward from 0, mirror the positives,
        # so (|v|, v) order interleaves the two
        ordered = sorted(elements)
        zero, first = bisect_left(ordered, 0), bisect_right(ordered, 0)
        negatives = islice(reversed(ordered), len(ordered) - zero, None)
        pairs = zip(negatives, islice(ordered, first, None))
        return [*islice(chain(ordered[zero:first],
                              chain.from_iterable(pairs)), cap)]

    def validate(self, el):
        if not isinstance(el, int):
            raise GroupError(f"Z element must be int, got {type(el).__name__}")

    def generators(self):
        return (1, -1)

    def window_elements(self, extent):
        return range(-extent, extent + 1)

    def word_ball_size(self, r):
        return 2 * r + 1


@dataclass(frozen=True)
class LatticeGroup(Group):
    d: int
    radius_separator = ";"       # lattice elements contain commas
    default_extent = 64

    def __post_init__(self):
        if self.d < 1:
            raise GroupError("lattice dimension must be >= 1")

    @property
    def spec(self):
        return f"z^{self.d}"

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def translates(self, g, xs):
        # one lazy map per coordinate, zipped: transposing ``xs`` with
        # zip(*xs) would build a tuple iterator per element
        return zip(*[map(add, map(itemgetter(i), xs), repeat(c))
                     for i, c in enumerate(g)])

    def inv(self, a):
        return tuple(-x for x in a)

    def parse(self, text):
        parts = text.strip().replace("−", "-").split(",")
        if len(parts) != self.d:
            raise GroupError(f"expected {self.d} coordinates, got {len(parts)}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise GroupError(f"bad lattice element: {text!r}") from None

    def render(self, el):
        return ",".join(str(x) for x in el)

    def norm(self, el):
        return sum(map(abs, el))

    def validate(self, el):
        if not (isinstance(el, tuple) and len(el) == self.d
                and all(isinstance(x, int) for x in el)):
            raise GroupError(f"bad Z^{self.d} element: {el!r}")

    def generators(self):
        gens = []
        for i in range(self.d):
            unit = tuple(1 if j == i else 0 for j in range(self.d))
            gens.append(unit)
            gens.append(self.inv(unit))
        return tuple(gens)

    def word_ball(self, r):
        # (prefix, word length left) pairs, one coordinate at a time
        points = [((), r)]
        for _ in range(self.d):
            points = [(p + (x,), left - abs(x)) for p, left in points
                      for x in range(-left, left + 1)]
        return frozenset(p for p, _ in points)

    def word_ball_size(self, r):
        # choose the j nonzero coordinates, their signs, and their
        # absolute values as a composition of at most r into j parts
        return sum(2**j * comb(self.d, j) * comb(r, j)
                   for j in range(self.d + 1))

    def window_size(self, extent):
        return (2 * extent + 1) ** self.d

    def window_elements(self, extent):
        return product(range(-extent, extent + 1), repeat=self.d)

    def interior(self, extent, ordered, margin):
        """The box |y_i| <= extent - margin: the sorted tuples order the
        first coordinate, so it is a ``bisect`` slice; each further
        coordinate is filtered by a ``compress`` over its absolute
        values.  A bound below 0 keeps nothing."""
        bound = extent - margin
        first = itemgetter(0)
        kept = ordered[bisect_left(ordered, -bound, key=first):
                       bisect_right(ordered, bound, key=first)]
        for i in range(1, self.d):
            kept = tuple(compress(kept, map(bound.__ge__, map(
                abs, map(itemgetter(i), kept)))))
        return kept


@dataclass(frozen=True)
class XorGroup(Group):
    """Restricted direct sum of Z/2; elements are int bit masks.

    Bit j of the mask is coordinate j.  ``m`` is the declared coordinate
    window (render width and default carrier truncation); the group
    operations themselves work on any finite-support mask, so nested
    windows with more coordinates stay inside one group object.
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise GroupError("coordinate bound must be >= 1")

    @property
    def spec(self):
        return f"z2sum:{self.m}"

    def identity(self):
        return 0

    def mul(self, a, b):
        return a ^ b

    def translates(self, g, xs):
        return map(xor, repeat(g), xs)

    def inv(self, a):
        return a

    def parse(self, text):
        text = text.strip()
        if not text or set(text) - {"0", "1"}:
            raise GroupError(f"bad bit string: {text!r}")
        return int(text[::-1], 2)

    def render(self, el):
        return format(el, "b")[::-1].ljust(self.m, "0")

    norm = staticmethod(int.bit_count)

    def word_balls_cover(self, elements):
        # the balls hold masks on the m declared coordinates only
        return max(elements, default=0) >> self.m == 0

    def validate(self, el):
        if not isinstance(el, int) or el < 0:
            raise GroupError(f"bad z2sum element: {el!r}")

    def generators(self):
        return tuple(1 << j for j in range(self.m))

    @property
    def default_extent(self):
        return self.m

    def word_ball(self, r):
        """Masks on the m declared coordinates with support <= r: sums
        of at most r distinct generators."""
        units = self.generators()
        return frozenset(sum(combo) for j in range(min(r, self.m) + 1)
                         for combo in combinations(units, j))

    def word_ball_size(self, r):
        return sum(comb(self.m, j) for j in range(min(r, self.m) + 1))

    def window_size(self, extent):
        return 2 ** extent

    def window_elements(self, extent):
        return range(2 ** extent)

    def interior(self, extent, ordered, margin):
        # the masks of the window, at every margin: a margin ball spans
        # the m declared coordinates, which a window of extent >= m holds
        # (narrower windows keep the same rule); sorted masks have
        # non-decreasing bit lengths, so no 2^extent is built
        return ordered[:bisect_right(ordered, extent, key=int.bit_length)]

    def enlarged_extent(self, extent):
        return extent + 2

    def clamp_ladder(self, ladder):
        # word balls saturate at the coordinate count
        out = []
        for t in ladder:
            v = min(t, self.m)
            if v not in out:
                out.append(v)
        return tuple(out)


_LETTERS = string.ascii_lowercase


def reduce_word(word):
    """Free reduction: cancel adjacent letter/inverse pairs."""
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class FreeGroup(Group):
    rank: int
    default_extent = 8

    def __post_init__(self):
        if not 1 <= self.rank <= 26:
            raise GroupError("free rank must be in 1..26")

    @property
    def spec(self):
        return f"free:{self.rank}"

    def identity(self):
        return ""

    def mul(self, a, b):
        # Every element is a reduced word (parse reduces, validate rejects
        # unreduced words, and products of reduced words are reduced), so
        # letters can cancel only where the two words meet.
        if not (a and b and a[-1] == b[0].swapcase()):
            return a + b
        n = min(len(a), len(b))
        i = 0
        while i < n and a[-1 - i] == b[i].swapcase():
            i += 1
        return a[:len(a) - i] + b[i:]

    def translates(self, g, xs):
        # g.x is g + x unless x starts with the inverse of g's last
        # letter; a one-letter g then cancels that letter alone
        if not g:
            return xs
        cancel = g[-1].swapcase()
        if len(g) == 1:
            return (x[1:] if x[:1] == cancel else g + x for x in xs)
        mul = self.mul
        return (mul(g, x) if x[:1] == cancel else g + x for x in xs)

    def right_translates(self, xs, g):
        # x.g is x + g unless x ends with the inverse of g's first letter
        if not g:
            return xs
        cancel = g[0].swapcase()
        mul = self.mul
        return (mul(x, g) if x[-1:] == cancel else x + g for x in xs)

    def inv(self, a):
        return a[::-1].swapcase()

    def parse(self, text):
        text = text.strip()
        if text in ("", "e"):
            return ""
        if set(text) - set(self.generators()):
            raise GroupError(f"bad free word: {text!r}")
        return reduce_word(text)

    def render(self, el):
        return el if el else "e"

    def sort_key(self, el):
        return (len(el), el)

    # (len, el) order is (norm, own) order
    sorted = Group.norm_sorted

    norm = staticmethod(len)

    def validate(self, el):
        if not isinstance(el, str):
            raise GroupError(f"free element must be str, got {type(el).__name__}")
        if el != reduce_word(el):
            raise GroupError(f"word not reduced: {el!r}")
        if set(el) - set(self.generators()):
            raise GroupError(f"letters outside rank-{self.rank} alphabet: {el!r}")

    def generators(self):
        return tuple(chain.from_iterable(
            (ch, ch.upper()) for ch in _LETTERS[:self.rank]))

    def window_elements(self, extent):
        # sphere by sphere: the words of a sorted sphere, each extended by
        # the sorted letters that may follow its last letter ("" for e),
        # make the next sphere sorted, so the walk is in (len, word) order
        gens = sorted(self.generators())
        follow = {last: [g for g in gens if g != last.swapcase()]
                  for last in ("", *gens)}
        sphere = [""]
        yield ""
        for _ in range(extent):
            sphere = [w + g for w in sphere for g in follow[w[-1:]]]
            yield from sphere

    def word_ball_size(self, r):
        # the sphere of radius i holds 2k(2k-1)^(i-1) reduced words
        k2 = 2 * self.rank
        return 1 + sum(k2 * (k2 - 1) ** (i - 1) for i in range(1, r + 1))

    # from rank 2 on, word balls grow exponentially: one letter more, and
    # consecutive small radii.  free:1 is z written in words: z's rules
    def enlarged_extent(self, extent):
        return extent + 1 if self.rank > 1 else super().enlarged_extent(extent)

    def clamp_ladder(self, ladder):
        return tuple(range(1, len(ladder) + 1)) if self.rank > 1 else ladder


_FAMILIES = {"z^": LatticeGroup, "z2sum:": XorGroup, "free:": FreeGroup}


def group_from_spec(spec):
    """Parse a group spec string: ``z``, ``z^2``, ``z2sum:16``, ``free:2``."""
    if not isinstance(spec, str):
        raise GroupError(f"group spec must be a string, got {type(spec).__name__}")
    spec = spec.strip().lower()
    if spec == "z":
        return IntGroup()
    for prefix, family in _FAMILIES.items():
        if spec.startswith(prefix):
            try:
                return family(int(spec[len(prefix):]))
            except ValueError:
                raise GroupError(f"bad group spec: {spec!r}") from None
    raise GroupError(f"unknown group spec: {spec!r}")


def _check_cap(size, n, what):
    """Raise BudgetExceededError when size(n) > WINDOW_CAP.  ``size``
    grows with n, so it is read at 1, 2, 4, ... first: an oversized
    request stops at a small argument instead of computing a size like
    the 3**10**8 words of a free:2 ball."""
    for m in [1 << k for k in range(n.bit_length())] + [n]:
        if size(m) > WINDOW_CAP:
            raise BudgetExceededError(
                f"{what} {n} exceeds the cap of {WINDOW_CAP} elements")


def word_ball_elements(group, r):
    """All elements of word length <= r over the canonical generators."""
    if r < 0:
        raise GroupError("word radius must be >= 0")
    _check_cap(group.word_ball_size, r, "word ball of radius")
    return group.word_ball(r)


@dataclass(frozen=True)
class FiniteSample:
    """A finite subset of a group plus the window extent and recipe
    behind it.

    ``recipe`` is an optional object with a ``resolve(group, window)``
    method; when present, stability checks can regenerate the sample in
    an enlarged window.
    """

    group: Group
    elements: frozenset
    window: int | None = None
    recipe: object | None = None

    @classmethod
    def from_ordered(cls, group, ordered, window=None, recipe=None):
        """The sample of the elements of ``ordered``, an iterable already
        in ``sort_key`` order and without repeats, which becomes its
        ``ordered`` tuple unsorted."""
        ordered = tuple(ordered)
        sample = cls(group, frozenset(ordered), window, recipe)
        sample.__dict__["ordered"] = ordered
        return sample

    @cached_property
    def ordered(self):
        """The elements as a tuple in ``sort_key`` order, sorted once
        unless ``from_ordered`` gave it."""
        return tuple(self.group.sorted(self.elements))

    @cached_property
    def outer(self):
        """The sample that stability checks compare against: the same set
        regenerated in the enlarged window, resolved once per sample; the
        sample itself when it has no window."""
        if self.window is None:
            return self
        window = self.group.enlarged_extent(self.window)
        if self.recipe is not None:
            return self.recipe.resolve(self.group, window)
        return FiniteSample(self.group, self.elements, window, None)

    @cached_property
    def _interiors(self):
        return {}

    def interior(self, margin):
        """The elements whose word-radius ``margin`` ball fits the window,
        all of them when there is no window: a tuple in sort_key order,
        ``Group.interior`` of the sample, built once per margin."""
        if self.window is None:
            return self.ordered
        interiors = self._interiors
        if margin not in interiors:
            interiors[margin] = self.group.interior(self.window, self.ordered,
                                                    margin)
        return interiors[margin]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, el):
        return el in self.elements

    def __iter__(self):
        return iter(self.ordered)


def enumerate_window(group, extent, recipe=None):
    """Every carrier element in the window of ``extent``, as a
    FiniteSample with ``recipe`` whose order is the one the window is
    generated in; over ``WINDOW_CAP`` elements it raises before building."""
    extent = group.window(extent)
    _check_cap(group.window_size, extent, "window of extent")
    return FiniteSample.from_ordered(group, group.window_elements(extent),
                                     extent, recipe)
