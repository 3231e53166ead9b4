"""Ground-truth game solver by retrograde analysis.

States are (ordered cop tuple, robber vertex, side to move).  Each side's win
labels over all n**k ordered cop tuples and n robber vertices are one Python
int, robber-major: bit ``r*n**k + i`` holds cop tuple ``i`` (its base-n
digits, cop 0 most significant) against robber ``r``, so robber r owns one
contiguous slab of n**k bits.  A sweep is big-int AND/OR/shift work, with
two kinds of pass:

  robber step:  (i, r) is won unless some x in N[r] has (i, x) unwon with the
                cops to move.  The complement of the cops-to-move labels is
                cut into its n robber slabs, slab r of the result is the OR
                of the slabs over N[r], and the table is rebuilt.  A table
                of one chunk (below) is cut by shifts and rebuilt by Horner
                shifts; a wider one is cut and joined by halving, so each
                bit is passed over about log2(n) times, not n/2.
  cop digits:   the cops move independently, so "some joint cop move
                reaches a won robber-to-move state" is one pass per cop
                digit, each along the diagonals of the closed-neighbourhood
                relation.  For an offset d = c - x with c in N[x], the bits
                whose digit is such an x are masked, shifted d places of the
                digit and ORed in.  Closed neighbourhoods are symmetric, so
                offset -d shifts first and then applies the mask of d.  A
                pass costs one shift pair per distinct offset: a path has
                {1}, a w-wide grid {1, w}, Q_d the d powers of two.

The cop passes run on chunks of whole robber slabs, cut by halving and
joined again: every digit, the lowest included, runs on one chunk at a time
with masks one chunk wide.  A cop pass keeps the robber's vertex and is only
ORed into the cops-to-move labels, which only grow, so a chunk that is empty
or whose robber slabs were all cops-won at the last robber step is skipped:
it would change no label.

The fixpoint is computed by Jacobi-style sweeps -- every sweep reads only the
previous sweep's labels -- so each state's first-won sweep is well defined.
The sweeps are semi-naive: each pass works from what the last sweep won.
The cop passes are OR-linear, and the spread of the older robber-to-move wins
is already in the cops-to-move labels, so they spread only the robber-to-move
states won in the last sweep.  The robber step reads the cops-to-move labels
whole, but after a sweep that won none of them it would rebuild the last
sweep's result, so it is skipped.  Either way each sweep's labels, and so
each state's first-won sweep, are those of the full sweep.
Sweep 0 is built slab by slab in closed form: slab c of capture is the cop
tuples with some digit equal to c, and slab r of its spread by the first cop
pass is the tuples with some digit in N[r] (a cop on x can step onto r iff
x is in N[r]).  A table of one chunk spreads capture by its one chunk pass
instead, which for tables that small costs less than the n + 2m slab ORs.
The final cops-to-move labels, and the first-won sweep of every
robber-to-move state as ceil(log2(sweeps + 1)) bit-plane tables, are kept
as bytes, so a state probe costs O(1) and a level costs O(log sweeps).
A solve holds a few tables besides the planes (the n robber slabs together
are one, and so are the chunks and each level of a halving), and for each
of the k cop digits one mask one chunk wide per offset d > 0: at most
k(n - 1) chunks, which is under k tables once a chunk is one slab.
``budget`` bounds the bits of one table.  Labels are symmetric under
permuting the cops, so the lowest cop tuple that wins in every robber slab
is sorted: it is the lex-smallest winning multiset.

``SolverCop`` plays the joint move with the least (first-won sweep, sorted
target, ordered target).  The joint moves are one n**k-bit mask, the product
of the cops' closed neighbourhoods built by shifts, and the last cop tuple's
mask is kept: the exhaustive adversary asks one tuple's robber options back
to back.  The complement of each plane's robber slab narrows it by AND while
the result stays nonempty.  A search over digits then finds the least
survivor without listing the moves: the next sorted value is the least
vertex some unassigned cop digit can hold in the mask, tested by AND with
the selector of the tuples whose digit j is v, and the search branches on
the digits that tie for it.  The selectors are built once per
``SolverCop``: k*n ints of at most n**k bits, so at most k label tables on
top of those ``budget`` bounds.  Of tied digits whose cops have the same
closed neighbourhood (two cops on one vertex, say) only the lowest is
branched on.
Swapping the two digits maps the joint moves onto themselves, and the planes
too, since the labels are symmetric under permuting the cops; so the branch
on the higher digit finds the mirror images of the lower one's tuples: the
same sorted tuples, and ordered ones no smaller, since there the lower digit
takes the larger value.

Definitions (cops win a state):
  cops to move:   capture now, or some cop move reaches a winning
                  robber-to-move state;
  robber to move: capture now, or every robber move (incl. staying) lands in
                  a winning cops-to-move state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import ResourceLimitError
from .graph import Graph, is_connected

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "is_k_copwin",
    "k_copwin_placement",
    "cop_number",
    "is_dismantlable",
    "SolverCop",
]

# Upper bound on n**(k+1), the bits of one label table.
DEFAULT_STATE_BUDGET = 50_000_000

# Least bits in one chunk of the cop-digit passes (CPU time on a shared
# 2-core VM, the solve bench's graphs).  One slab per chunk made k = 2 slower
# on small graphs: cop_number on 3x3..5x5 grids 0.53 -> 1.17 ms, on C24..C32
# 5.2 -> 8.9 ms.  Chunks of 2**13 to 2**40 bits (the whole table) ran within
# noise of each other there, while on larger tables 2**15 was among the
# fastest: G(40, .1) at k = 3 352 ms against 474 ms for the whole table,
# G(20, .2) at k = 4 238 ms against 348 ms.
_CHUNK_BITS = 1 << 15


@dataclass(frozen=True)
class _Tables:
    n: int
    sweeps: int          # sweeps that changed some label, capture being sweep 0
    win_cop: bytes       # final cops-to-move labels, bit r*n**k + i (little-endian)
    planes: tuple        # bit planes of each robber-to-move state's first-won
                         # sweep, most significant first; all ones = never won
    placement: tuple | None  # lex-smallest winning cop tuple

    def state(self, cops, r: int) -> int:
        """Bit index of (cops, r) in the label tables."""
        i = 0
        for c in cops:
            i = i * self.n + c
        return r * self.n ** len(cops) + i

    def level(self, b: int) -> int:
        """First sweep that won robber-to-move state ``b``, or -1 if none did."""
        v = 0
        for plane in self.planes:
            v = 2 * v + _bit(plane, b)
        return -1 if v == (1 << len(self.planes)) - 1 else v


def _bit(table: bytes, b: int) -> int:
    return (table[b >> 3] >> (b & 7)) & 1


def _tile(pattern: int, period: int, total: int) -> int:
    """`pattern` repeated every `period` bits over `total` bits."""
    width = period
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << total) - 1)


def _slabs(table: int, count: int, width: int) -> list:
    """The `count` consecutive `width`-bit slabs of `table`, lowest first."""
    mask = (1 << width) - 1
    return [(table >> (x * width)) & mask for x in range(count)]


def _horner(slabs, width: int) -> int:
    """The table whose consecutive `width`-bit slabs are `slabs`, lowest first."""
    table = 0
    for slab in reversed(slabs):
        table = (table << width) | slab
    return table


def _halve(table: int, count: int, width: int) -> list:
    """`_slabs` by halving: every bit is passed over once per level, about
    log2(count) times, where the shifts pass over count/2 tables."""
    if count == 1:
        return [table]
    half = count // 2
    bits = half * width
    low = table & ((1 << bits) - 1)
    return _halve(low, half, width) + _halve(table >> bits, count - half, width)


def _unhalve(slabs, width: int) -> int:
    """`_horner` by halving."""
    if len(slabs) == 1:
        return slabs[0]
    half = len(slabs) // 2
    return _unhalve(slabs[:half], width) | (_unhalve(slabs[half:], width) << (half * width))


def _chunk_slabs(n: int, k: int) -> int:
    """Robber slabs per chunk: the fewest that reach _CHUNK_BITS, at most n."""
    return min(n, -(-_CHUNK_BITS // n**k))


def _diagonal_masks(closed, k: int, width: int) -> tuple:
    """masks[p]: a (shift, mask) pair for every offset d > 0 with x + d in
    N[x] for some x, ascending in d, where the shift is d * n**p and the
    `width`-bit mask holds the bits whose cop digit of weight n**p is such
    an x."""
    n = len(closed)
    masks = []
    for p in range(k):
        stride = n ** p
        field = (1 << stride) - 1
        rows = [0] * n      # rows[d]: the digits x with x + d in N[x], one field each
        for x, nbhd in enumerate(closed):
            for c in nbhd:
                if c > x:
                    rows[c - x] |= field << (x * stride)
        masks.append(tuple((d * stride, _tile(row, n * stride, width))
                           for d, row in enumerate(rows) if row))
    return tuple(masks)


def _spread_cops(chunk: int, masks) -> int:
    """The cop pass over every cop digit of `chunk`, whole robber slabs: bit
    (.., c, ..) of the result is set iff some x in N[c] has bit (.., x, ..)
    set, along each digit.

    Digit p keeps what it reads (x is in N[x]); offset d of ``masks[p]``
    moves the masked digits x up to x + d, and offset -d moves the digits
    x + d down to x.  Neither carries into the next digit: x + d < n, and
    a digit y < d moved down lands on n - d + y, where no mask of d is set.
    """
    reach = chunk
    for diagonals in masks:
        out = reach
        for shift, mask in diagonals:
            out |= ((reach & mask) << shift) | ((reach >> shift) & mask)
        reach = out
    return reach


def _by_chunks(table: int, first: int, count: int, per: int, cells: int, free, masks) -> int:
    """`_spread_cops` applied to each chunk of `per` robber slabs of the
    `count`-slab `table` whose lowest slab is slab `first` (the last chunk
    may be shorter), the results joined again.

    The table is halved at a chunk boundary, so the cut and the join pass
    over every bit once per level of the halving, log2(count / per) times.
    A big-int pass costs the full width whatever the popcount, so a part
    that is empty, or whose slabs of `free` (the unwon cops-to-move labels)
    are all 0, is returned as 0, neither cut nor spread.
    """
    if not table or not any(free[first:first + count]):
        return 0
    if count <= per:
        return _spread_cops(table, masks)
    cut = (count + per - 1) // per // 2 * per    # slabs below the cut
    bits = cut * cells
    high = table >> bits
    table = _by_chunks(table & ((1 << bits) - 1), first, cut, per, cells, free, masks)
    return table | (_by_chunks(high, first + cut, count - cut, per, cells, free, masks) << bits)


def _capture(n: int, k: int) -> list:
    """Capture slab by slab: slab c is the cop tuples with some digit equal to c."""
    cells = n ** k
    caps = [0] * n
    for p in range(k):
        w = n ** p
        digit = _tile((1 << w) - 1, n * w, cells)   # the tuples whose digit of weight w is 0
        caps = [slab | digit << (c * w) for c, slab in enumerate(caps)]
    return caps


def _first_reach(caps, closed) -> list:
    """Sweep 0's cop pass in closed form, slab by slab: a cop on x can step
    onto r iff x is in N[r], so slab r of the spread of capture is the
    tuples with some digit in N[r], the OR of capture's slabs over N[r]."""
    return [reduce(or_, map(caps.__getitem__, nbhd)) for nbhd in closed]


def _solve(g: Graph, k: int) -> _Tables:
    n = g.n
    cells = n ** k          # cop tuples: the bits of one robber slab
    size = n * cells
    nbytes = (size + 7) // 8
    ones = (1 << size) - 1
    full = (1 << cells) - 1
    closed = g.closed_neighborhoods()
    per = _chunk_slabs(n, k)
    masks = _diagonal_masks(closed, k, per * cells)
    # tables of one chunk are cut and joined by shifts, wider ones by halving
    cut, join = (_slabs, _horner) if per == n else (_halve, _unhalve)

    caps = _capture(n, k)
    win_cop = win_rob = join(caps, cells)
    free = [full ^ slab for slab in caps]  # slabs of the unwon cops-to-move labels
    # the cop pass of the coming sweep: a table of one chunk spreads capture
    # by its chunk's pass, which for tables that small costs less than the
    # closed form's n + 2m slab ORs
    if per == n:
        reach = _spread_cops(win_rob, masks)
    else:
        reach = join(_first_reach(caps, closed), cells)
    del caps
    cop_won = True          # whether the last sweep won a cops-to-move state
    planes = []             # planes[j]: states whose first-won sweep has bit j set
    sweep = 0               # capture is sweep 0
    while True:
        # robber to move: won unless some robber move reaches an unwon state;
        # slab r of `escape` is the OR of the unwon slabs over N[r].  With no
        # new cops-to-move wins, `escape` would be the last one: nothing to win
        new_rob = win_rob
        if cop_won:
            if per == n:    # one chunk: Horner shifts rebuild the table as it is made
                escape = 0
                for nbhd in reversed(closed):
                    slab = 0
                    for x in nbhd:
                        slab |= free[x]
                    escape = (escape << cells) | slab
            else:
                escape = join([reduce(or_, map(free.__getitem__, nbhd)) for nbhd in closed], cells)
            new_rob |= ones ^ escape
        new_cop = win_cop | reach
        fresh = new_rob ^ win_rob
        cop_won = new_cop != win_cop
        if not (fresh or cop_won):
            break
        sweep += 1
        planes += [0] * (sweep.bit_length() - len(planes))
        for j in range(len(planes)):
            if sweep >> j & 1:
                planes[j] |= fresh
        win_rob, win_cop = new_rob, new_cop
        if cop_won:
            free = cut(ones ^ win_cop, n, cells)
        # cops to move: one existential pass per cop digit over the last
        # sweep's wins (the older wins' spread is in win_cop), one chunk at a
        # time.  A cop pass keeps the robber's vertex and win_cop only grows,
        # so a chunk whose slabs are all won already is skipped
        if per == n:    # one chunk: what `_by_chunks` does, without its calls
            reach = _spread_cops(fresh, masks) if fresh and any(free) else 0
        else:
            reach = _by_chunks(fresh, 0, n, per, cells, free, masks)
    sweeps = sweep + 1
    # never-won states are all ones, above every level 0..sweeps-1
    planes += [0] * (sweeps.bit_length() - len(planes))
    never = ones ^ win_rob
    # popped most significant first, so each int plane is freed once packed
    planes = tuple((planes.pop() | never).to_bytes(nbytes, "little") for _ in range(len(planes)))

    # `free` is cut from the final cops-to-move labels: the cop tuples that
    # win against every robber vertex are those unwon in no slab
    everywhere = full ^ reduce(or_, free)
    placement = None
    if everywhere:
        i = (everywhere & -everywhere).bit_length() - 1
        placement = tuple(i // n ** (k - 1 - j) % n for j in range(k))
    return _Tables(n, sweeps, win_cop.to_bytes(nbytes, "little"), planes, placement)


def _tables(g: Graph, k: int, budget: int) -> _Tables:
    """The tables of (g, k), kept on g; the budget is checked on every call,
    so kept tables still refuse a smaller budget."""
    if not is_connected(g):
        raise ValueError("solver requires a connected graph")
    if k < 1:
        raise ValueError("need k >= 1")
    # 2**(k+1) > budget: over budget for n >= 2 without forming n**(k+1); caps k at n = 1
    if k + 1 >= budget.bit_length() or g.n ** (k + 1) > budget:
        raise ResourceLimitError(
            f"n**(k+1) table bits, n = {g.n} and k + 1 = {k + 1}, exceed the budget of {budget}")
    return g._keep(("tables", k), lambda: _solve(g, k))


def is_k_copwin(g: Graph, k: int, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff k cops have a winning strategy on the connected graph g."""
    return _tables(g, k, budget).placement is not None


def k_copwin_placement(g: Graph, k: int, budget: int = DEFAULT_STATE_BUDGET):
    """A winning initial placement (lex-smallest multiset), or None."""
    return _tables(g, k, budget).placement


def cop_number(g: Graph, k_max: int, budget: int = DEFAULT_STATE_BUDGET):
    """Least k <= k_max with is_k_copwin, else None (exceeds k_max)."""
    for k in range(1, k_max + 1):
        if is_k_copwin(g, k, budget):
            return k
    return None


def is_dismantlable(g: Graph) -> tuple[bool, list[int]]:
    """Corner-elimination test for cop number 1 (classical characterization).

    A corner is a vertex whose closed neighborhood is contained in another
    vertex's closed neighborhood; repeatedly remove the lowest-id corner.
    Returns (emptied, elimination order).
    """
    alive = (1 << g.n) - 1
    closed = [sum(1 << w for w in nb) for nb in g.closed_neighborhoods()]
    order: list[int] = []
    while alive:
        if alive.bit_count() == 1:
            order.append(alive.bit_length() - 1)
            return True, order
        corner = None
        scan = alive
        while scan and corner is None:
            low = scan & -scan
            v = low.bit_length() - 1
            scan ^= low
            cv = closed[v] & alive
            others = alive ^ low
            while others:
                lo2 = others & -others
                u = lo2.bit_length() - 1
                others ^= lo2
                if cv & ~(closed[u] & alive) == 0:
                    corner = v
                    break
        if corner is None:
            return False, order
        order.append(corner)
        alive &= ~(1 << corner)
    return True, order


def _least_move(mask: int, free, values, move, options, keys, best):
    """The least (sorted tuple, ordered tuple) in `mask` that assigns the
    digits `free` and extends the sorted prefix `values` and the partial
    `move`, or `best` if it is less.

    ``options[j]`` lists, ascending, each value v digit j may take, with the
    selector of the tuples whose digit j is v; digits with equal ``keys``
    range over the same values.  The next sorted value is the least vertex
    some free digit can hold inside the mask.  The search branches on the
    digits that tie for it, with the mask narrowed to that digit, and drops a
    prefix above the best sorted tuple.  Of tied digits with equal keys it
    branches on the lowest only: the mask is symmetric in them, so a higher
    one's branch finds the mirror images of the lowest one's tuples, with the
    same sorted tuples and ordered ones no smaller.
    """
    if not free:
        return (values, move) if best is None or (values, move) < best else best
    least, tied = None, []
    for j in free:
        for v, select in options[j]:
            if least is not None and v > least:
                break
            if mask & select:
                if least is None or v < least:
                    least, tied = v, []
                tied.append((j, select))
                break
    values += (least,)
    if best is not None and values > best[0][:len(values)]:
        return best
    seen = []
    for j, select in tied:
        if keys[j] not in seen:
            seen.append(keys[j])
            best = _least_move(mask & select, tuple(f for f in free if f != j), values,
                               move[:j] + (least,) + move[j + 1:], options, keys, best)
    return best


class SolverCop:
    """Optimal cop strategy extracted from the retrograde tables.

    From a winning cops-to-move state it plays the joint move minimizing
    (first-won sweep of the resulting robber state, sorted target, ordered
    target), which strictly decreases the sweep level and therefore forces
    capture.  The last (cop tuple, robber) asked and its move are kept, since
    the engine's determinism check asks a state again right after the first
    ask, and the complement of the robber's slab of every plane is cut once
    per robber vertex.  The joint-move mask of the last cop tuple is kept,
    since an adversary asks one tuple's robber options back to back.  The
    selector of the tuples whose digit j is v is built once, for every j and
    v: k*n ints of at most n**k bits, so at most k label tables on top of
    those ``budget`` bounds.
    Of the digits that tie in the search, those whose cops have the same
    closed neighbourhood are branched on once, at the lowest: by the mirror
    argument of the module docstring the others find no lesser move.
    """

    name = "solver-optimal"

    def __init__(self, g: Graph, k: int, budget: int = DEFAULT_STATE_BUDGET):
        self._tables = _tables(g, k, budget)
        if self._tables.placement is None:
            raise ValueError(f"{k} cops do not win on this graph")
        n = g.n
        self._weights = tuple(n ** (k - 1 - j) for j in range(k))
        self._closed = g.closed_neighborhoods()
        first: dict = {}    # the lowest vertex with each closed neighbourhood
        self._twin = tuple(first.setdefault(nbhd, v) for v, nbhd in enumerate(self._closed))
        self._options = []  # [j][c]: (v, the tuples whose digit j is v) for v in N[c]
        for w in self._weights:
            zero = _tile((1 << w) - 1, w * n, n**k)
            select = [zero << v * w for v in range(n)]
            self._options.append(tuple(tuple((v, select[v]) for v in nbhd) for nbhd in self._closed))
        self._plane_slabs: dict = {}
        self._asked = (None, None)  # the last (cop tuple, robber) asked and its move
        self._last = (None, 0, None, None)  # cop tuple, joint moves, options, keys

    def place(self, g, cfg):
        return self._tables.placement

    def move(self, g, view, state):
        r = view.robber_position
        if r is None:
            raise ValueError("solver strategy needs a visible robber")
        key = (tuple(view.cop_positions), r)
        if self._asked[0] != key:
            self._asked = (key, self._choose(g, *key))
        return self._asked[1], state

    def _robber_planes(self, r: int) -> tuple:
        """The complement of robber r's slab of every plane, cut on first use."""
        slabs = self._plane_slabs.get(r)
        if slabs is None:
            cells = self._tables.n ** len(self._weights)
            lo, hi = r * cells, (r + 1) * cells
            mask = (1 << cells) - 1
            slabs = self._plane_slabs[r] = tuple(
                ~(int.from_bytes(plane[lo >> 3:(hi + 7) >> 3], "little") >> (lo & 7)) & mask
                for plane in self._tables.planes)
        return slabs

    def _joint_moves(self, cops) -> tuple:
        """Every joint move as one mask (the product of the closed
        neighbourhoods), each digit's options and keys; kept for the last tuple."""
        if self._last[0] != cops:
            mask = 1
            for w, c in zip(reversed(self._weights), reversed(cops)):
                spread = 0
                for x in self._closed[c]:
                    spread |= mask << (x * w)
                mask = spread
            options = tuple(self._options[j][c] for j, c in enumerate(cops))
            self._last = (cops, mask, options, tuple(self._twin[c] for c in cops))
        return self._last[1:]

    def _choose(self, g, cops, r):
        t = self._tables
        if not _bit(t.win_cop, t.state(cops, r)):
            # Not a winning state (robber deviated into one we cannot punish);
            # hold position.  Unreachable when play starts from our placement.
            return cops
        mask, options, keys = self._joint_moves(cops)
        for unset in self._robber_planes(r):    # narrowed to the least first-won sweep
            rest = mask & unset
            if rest:
                mask = rest
        k = len(cops)
        return _least_move(mask, tuple(range(k)), (), (None,) * k, options, keys, None)[1]
