"""Window-averaged transfer probabilities and truncation-error integrals.

From site 1 the amplitude to site n = s+1 is a finite cosine sum over the
retained modes a, with wave numbers p_a = 2 pi k_a / N (k_a = a-1) and
g_a = multiplicity_a / N:

    p_{1,s+1}(tau) = sum_a c_a(s) e^{-i lam_a tau},   c_a(s) = g_a cos(p_a s).

So every window integral over [0, T] is a closed-form quadratic form,

    integral_0^T |p_{1,s+1}|^2 dtau = sum_{a,b} c_a(s) c_b(s) K_ab,
    K_ab = F(lam_a - lam_b),   F(u) = sin(uT) / u  (T when degenerate).

The fold cos A cos B = [cos(A-B) + cos(A+B)] / 2 turns it into a function of
the mode-index offsets (k_a - k_b) mod N and (k_a + k_b) mod N: summing
g_a g_b K_ab / 2 over both offsets into a length-N histogram h, the form for
every target s = 0..N/2 is Re sum_r h_r e^{-2 pi i r s / N}, one real FFT.
K is symmetric, so only the diagonal and one of each pair a != b are
evaluated, the pairs with double weight.

The truncation error of transfer 1 -> n at radius M is the relative L2
deviation sqrt(int |p - p_ref|^2 / int |p_ref|^2) from the all-node
amplitude.  Its numerator kernel
K(lam, lam) + K(ref, ref) - K(lam, ref) - K(ref, lam) has four terms of
size T whose sum can be 1e-30 of them, so it is never summed as written.
With u0 = lam'_a - lam'_b from the reference spectrum lam', and the shifts
delta = lam - lam' taken straight from the couplings beyond M
(`spectral.eigenvalue_shifts`), it is the mixed second difference
Delta_alpha Delta_beta F(u0) with steps alpha = delta_a, beta = -delta_b.
The finite-difference product rule on F = sin(uT) * (1/u) splits it into
products in which nothing cancels:

    u3 K = S (A1a A1b + A2a A2b) + C (A2a A1b - A1a A2b)
           + delta_a (A1b C + A2b S) / u2 + delta_b (A1a C - A2a S) / u1
           - delta_a delta_b (S / u0) (u0 + u3) / (u1 u2),

with S = sin(u0 T), C = cos(u0 T), A1 = sin(delta T),
A2 = 1 - cos(delta T) = 2 sin^2(delta T / 2), u1 = lam_a - lam'_b,
u2 = lam'_a - lam_b and u3 = lam_a - lam_b.  The diagonal is
2 T (1 - sinc(delta_a T)).  An entry with |u| T < POLE_SPAN for one of its
four frequencies would divide by a small number; it is evaluated apart, by
the class of its steps (`_near_difference`): with both steps short, as
one pole-free integral that a twelve-node Gauss-Legendre rule takes to
rounding, and otherwise as two single differences along the shorter step.
The probability kernel sin(u3 T) / u3 needs no pair tables: its sine is
sin(lam_a T) cos(lam_b T) - cos(lam_a T) sin(lam_b T), lam = lam_ref + delta.
The numerator of radius M rounds by at most about
B_M = modes eps T min(1, T max_a |delta_a|)^2, the size of its largest
product-rule term times its number of modes: an error whose numerator is
within B_M reads as exactly 0, and every error is right to sqrt(B_M / den)
absolute, den the reference power.  Where modes swap frequencies,
T max |delta| is as large as T times a frequency gap, usually >= 1, and
the pairs cancel each other only to that bound.

Cost: per map, the diagonal and the O(N) per-mode tables of every radius,
the near-pole entries, a few dozen at the paper's lengths, in one batch,
and for an error map the N^2/2 sines and cosines of u0 T (`_PairKernels`);
per tile of (radius, pair) entries, O(N^2) products, a few quotients, a
pole mask and the fold, so a (M, target) map is O(N^3) with no N^2
transcendental per radius.  At N <= 71 a map is one or two tiles, whose
arithmetic takes a tenth (N = 20) to a third (N = 70) of it; the rest is
the setup, the near-pole batch, the folds and the FFT, NumPy calls on small
arrays.  The per-mode tables reach a tile by two contiguous copies, never
by a gather, and a map's blocks of radii are as even as their number allows.
Mirror symmetry makes targets n and N+2-n equivalent, so only
n = 1..max_neighbors+1 are computed; the mode multiplicities weight them
back to the full-ring average (targets and modes are the same reflection
orbits of Z_N).  Composite-Simpson quadrature is only a cross-check (see
`oracle`).

The error of the whole state evolved from site 1 needs no pairs: summed
over the targets, the mode pairs a != b cancel by orthogonality and only the
diagonal of the error kernel is left, one O(N) sum per radius
(`state_error`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, CouplingProfile, max_neighbors
from .spectral import eigenvalue_shifts, mode_count, mode_multiplicities

__all__ = [
    "DEGENERACY_TOL",
    "MIN_T_MAX",
    "ThresholdResult",
    "TimeWindow",
    "accuracy_threshold",
    "error_map",
    "independent_targets",
    "probability_map",
    "state_error",
]

# frequencies closer than this are integrated as exactly degenerate
DEGENERACY_TOL = 1e-12
# shortest window: below it, (lam_a - lam_b) T of a pair just above
# DEGENERACY_TOL is subnormal, and the window kernel loses its digits
MIN_T_MAX = float(np.finfo(float).tiny) / DEGENERACY_TOL
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TimeWindow:
    """Averaging interval [0, t_max] in dimensionless time."""

    t_max: float

    def __post_init__(self):
        # a float: the window kernels take the dtype of t_max, and an integer
        # one would truncate them
        object.__setattr__(self, "t_max", float(self.t_max))
        if not MIN_T_MAX <= self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and at least {MIN_T_MAX:.3g}, "
                             f"got {self.t_max!r}")

    @classmethod
    def matched(cls, nodes: int) -> "TimeWindow":
        """The default window T = N used throughout the analysis."""
        return cls(float(nodes))


def independent_targets(nodes: int) -> tuple[int, ...]:
    """Target sites not related by ring reflection: n = 1..max_neighbors+1."""
    return tuple(range(1, max_neighbors(nodes) + 2))


def _plain_kernel(delta: np.ndarray, t_max: float) -> np.ndarray:
    """F(delta) = Re integral_0^T e^{-i delta tau} dtau = sin(delta T) / delta,
    T where |delta| <= DEGENERACY_TOL."""
    return np.divide(np.sin(delta * t_max), delta, out=np.full_like(delta, t_max),
                     where=np.abs(delta) > DEGENERACY_TOL)


# Taylor coefficients in x^2 of (1 - sinc x) / x^2, from
# sinc x = sin x / x = sum_m (-1)^m x^(2m) / (2m+1)!: ten terms reach
# rounding for |x| < 1
_TAYLOR = np.array([(-1.0) ** (m + 1) / math.factorial(2 * m + 1) for m in range(1, 11)])


def _one_minus_sinc(x: np.ndarray) -> np.ndarray:
    """1 - sin(x)/x without cancellation at small x: the Taylor series,
    by Horner's rule in x^2, where |x| < 1."""
    x2 = x * x
    series = np.full_like(x2, _TAYLOR[-1])
    for c in _TAYLOR[-2::-1]:
        series *= x2
        series += c
    small = np.abs(x) < 1.0
    wide = np.where(small, 1.0, x)
    return np.where(small, x2 * series, 1.0 - np.sin(wide) / wide)


# Gauss-Legendre rule on [-1, 1] with twelve nodes, the positive half
# (Abramowitz and Stegun, table 25.4), and the same rule on [0, 1]
_GL_HALF_X = np.array([0.125233408511468915472441369464, 0.367831498998180193752691536644,
                       0.587317954286617447296702418941, 0.769902674194304687036893833213,
                       0.904117256370474856678465866119, 0.981560634246719250690549090149])
_GL_HALF_W = np.array([0.249147045813402785000562436043, 0.233492536538354808760849898925,
                       0.203167426723065921749064455810, 0.160078328543346226334652529543,
                       0.106939325995318430960254718194, 0.047175336386511827194615961485])
_GL_X = 0.5 + 0.5 * np.concatenate((-_GL_HALF_X[::-1], _GL_HALF_X))
_GL_W = 0.5 * np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))
# an entry whose |u| T is below POLE_SPAN for one of its four frequencies u
# goes to `_near_difference`; there a step is short when |step| T <= GL_SPAN
# and a base y near zero when |y| T <= BASE_SPAN, so that the twelve-node
# rule meets frequencies of at most 5 / T, which it integrates to rounding
POLE_SPAN = 1.0
GL_SPAN = 2.0
BASE_SPAN = 3.0
# kernel entries per tile (class `_PairKernels`)
TILE = 1 << 14


def _single_difference(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g(y + b) - g(y), g(x) = sin(x)/x: plain for a long step b.  For a
    short one, -2 int_0^1 sin(b s/2) sin((y + b/2) s) ds where the base y is
    near zero, and elsewhere, where neither y nor y + b is near zero, the
    one-step product form [2y cos(y + b/2) sin(b/2) - b sin y] / (y (y + b))."""
    ends = np.array((y + b, y))
    g = _plain_kernel(ends, 1.0)
    short = np.abs(b) <= GL_SPAN
    if not short.any():
        return g[0] - g[1]
    near = np.abs(y) <= BASE_SPAN
    half = 0.5 * b
    mid = y + half
    at = np.sin(np.multiply.outer((half, mid), _GL_X))  # at the nodes
    rule = -2.0 * (at[0] * at[1]) @ _GL_W
    product = ((2.0 * y * np.cos(mid) * np.sin(half) - b * np.sin(y))
               / np.where(short > near, y * ends[0], 1.0))
    return np.where(short, np.where(near, rule, product), g[0] - g[1])


def _near_difference(u0: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                     t_max: float) -> np.ndarray:
    """F(u0+alpha+beta) - F(u0+alpha) - F(u0+beta) + F(u0), F(u) = sin(uT)/u,
    without a pole.  With both steps short, F(u) = int_0^T cos(u tau) dtau
    turns it into -4 int_0^T sin(alpha tau/2) sin(beta tau/2)
    cos((u0 + (alpha+beta)/2) tau) dtau, which has no pole and cancels
    nothing.  Otherwise it is the difference of two `_single_difference`s
    along the shorter step, at the two bases that the longer one joins."""
    steps, x = np.array((alpha, beta)) * t_max, u0 * t_max
    half = 0.5 * steps
    sines = np.sin(np.multiply.outer(half, _GL_X))  # at the nodes
    mid = np.cos(np.multiply.outer(x + half[0] + half[1], _GL_X))
    values = -4.0 * (sines[0] * sines[1] * mid) @ _GL_W
    span = np.abs(steps)
    long = (np.maximum(span[0], span[1]) > GL_SPAN).nonzero()[0]
    if long.size:
        (a, b), x = steps[:, long], x[long]
        swap = span[1, long] > span[0, long]
        y = np.concatenate((x + np.where(swap, b, a), x))
        shorter = np.where(swap, a, b)
        diff = _single_difference(y, np.concatenate((shorter, shorter)))
        values[long] = diff[: long.size] - diff[long.size :]
    return values * t_max


class _Chunk(NamedTuple):
    """A chunk of whole offset rows of the pair list (class `_PairKernels`)."""

    pairs: slice  # its range of pairs
    offsets: slice  # the offsets d of its rows of m pairs
    half: bool  # whether it ends with the half row d = m/2 of an even m
    spread: np.ndarray | None  # error maps: u0, S, C and S / u0 of its pairs, over the block rows


class _PairKernels:
    """Window kernels of one map on the mode pairs, and their fold onto the
    independent targets.

    The pairs a != b of the m modes are listed by cyclic offset: row
    d = 1..floor(m/2) holds {c, (c + d) mod m} for every c, only c < m/2 in
    the last row of an even m, so each unordered pair comes once and carries
    double weight, because every kernel here is symmetric.  The diagonal
    a = b is kept apart.  Per map: the pair tables of lam_ref, which only
    error maps build, u0 and, weighted by g_a g_b, sin(u0 T), cos(u0 T) and
    sin(u0 T) / u0, also repeated over the rows of a block so that no tile
    arithmetic broadcasts them; the diagonal and the per-mode tables of
    every radius (`tables`), written twice over along the modes and read
    through a Hankel view, so that mode (c + d) mod m of row d is column
    c + d; and the pole-free evaluation of every entry that a tile flagged
    as near a pole.  Per tile, a block of radii times a chunk of whole
    offset rows, at most max(TILE, m) entries: two copies, the products,
    the pole mask and the fold.  Mode a of a row is the table itself and
    mode b the table moved by d, so each side of a tile is one copy of a
    broadcast or of the Hankel view, with no gather, and all arithmetic
    runs on the contiguous copies.  Along row d, (a - b) mod N is N - d
    while c + d < m and m - d after it, so the diff fold adds two run sums
    per row: a weighted `bincount` of every entry would add to one bin m
    times in a serial chain.  Every tile-sized array lives in a workspace
    allocated once per map: allocating fresh arrays of that size per
    operation costs more than the arithmetic on them.
    """

    def __init__(self, nodes: int, t_max: float, radii: int, lam_ref: np.ndarray | None = None):
        """Pair layout for maps of up to `radii` rows; with lam_ref, an error map's pair tables."""
        self.nodes, self.modes, self.t_max = nodes, mode_count(nodes), t_max
        m, size = self.modes, self.modes * (self.modes - 1) // 2
        offsets, full = m // 2, (m - 1) // 2  # rows, and rows of m pairs
        # pair i is entry [d - 1, c] of the offset-by-mode grid, c = i % m,
        # whose mode b is (c + d) mod m
        k, d = np.arange(m), np.arange(1, offsets + 1)[:, None]
        grid = (k + d) % m
        self.ib = grid.reshape(-1)[:size]
        g = mode_multiplicities(nodes) / nodes
        self.weights = (g * g[grid]).reshape(-1)[:size]
        self.diag_weights = 0.5 * g * g
        per = max(1, TILE // m)  # offset rows per chunk
        chunk = min(size, per * m)
        # radii per block: the fewest blocks of at most TILE entries, each as
        # small as that number allows, which keeps a tile's arrays in cache
        blocks = max(1, -(-radii // max(1, TILE // chunk)))
        self.rows = max(1, -(-radii // blocks))
        # room for the copies of three tables per side and five working arrays
        self._workspace = np.empty(11 * self.rows * chunk)
        # histogram bins of the offsets k_a - k_b and k_a + k_b of a row
        # (module docstring), on the grid k_a + k_b < N; in a map, row i
        # starts at bin i N.  On the diagonal k_a - k_b is 0
        self.diag_bins = 2 * k % nodes
        self.bins = bins = np.array(((k - grid) % nodes, k + grid)).reshape(2, -1)[:, :size]
        # along row d, (a - b) mod N is N - d from c = 0 (a = 0) and m - d
        # from c = m - d (b = 0): two runs per row, (d - 1) m and d (m - 1),
        # only the first in a half row
        cut = offsets + full
        runs = (d * (m, m - 1) - (m, 0)).reshape(-1)[:cut]
        start = nodes * np.arange(self.rows)[:, None]
        self.reference = lam_ref is not None
        if self.reference:
            self.u0 = u0 = (lam_ref - lam_ref[grid]).reshape(-1)[:size]
            self.abs_u0 = np.abs(u0)
            x = u0 * t_max
            sin, cos = self.weights * np.sin(x), self.weights * np.cos(x)
            # `_plain_kernel` of u0, on the same sine
            self.sin_u0 = np.divide(sin, u0, out=t_max * self.weights,
                                    where=self.abs_u0 > DEGENERACY_TOL)
            pair = np.array((u0, sin, cos, self.sin_u0))[:, None]
        self.chunks = []
        for lo in range(0, offsets, per):
            hi = min(lo + per, offsets)
            c, r = slice(lo * m, min(hi * m, size)), slice(2 * lo, min(2 * hi, cut))
            spread = pair[..., c].repeat(self.rows, axis=1) if self.reference else None
            self.chunks.append((_Chunk(c, slice(lo + 1, min(hi, full) + 1), hi > full, spread),
                                runs[r] - c.start, start + bins[0, runs[r]], start + bins[1, c]))

    def map(self, diagonal, tables: np.ndarray, off_diagonal, near) -> np.ndarray:
        """sum_ab c_a(s) c_b(s) K_ab for every row of `tables` (method
        `tables`) and every target s, with K given by the `diagonal` values,
        which broadcast against the rows, by off_diagonal(tables, chunk),
        which takes the tables of a block and returns weighted entries with a
        mask of those near a pole, and by near(values, rows, pairs), which
        evaluates the masked entries from the tabled values, unweighted, once
        per map.  Kernels built with lam_ref add one row: the form of the
        plain kernel of lam_ref, T on the diagonal and sin(u0 T) / u0 off it."""
        radii, reference = tables.shape[1], self.reference
        h = np.zeros((radii + reference, self.nodes))
        kernel = np.full((radii + reference, self.modes), self.t_max)
        kernel[:radii] = diagonal
        start = self.nodes * np.arange(radii + reference)[:, None]
        _accumulate(h, kernel * self.diag_weights, np.repeat(start, self.modes),
                    start + self.diag_bins)
        if reference:
            _accumulate(h[radii], self.sin_u0, *self.bins)
        flagged = []
        for r in range(0, radii, self.rows):
            block = tables[:, r : r + self.rows]
            n = block.shape[1]
            hist = h[r : r + n]
            for chunk, runs, diff, total in self.chunks:
                values, poles = off_diagonal(block, chunk)
                flat = poles.reshape(-1).nonzero()[0]  # a 2-D nonzero takes ten times as long
                if flat.size:
                    values.reshape(-1)[flat] = 0.0
                    rows, pairs = np.divmod(flat, poles.shape[1])
                    flagged.append((rows + r, pairs + chunk.pairs.start))
                _accumulate(hist, np.add.reduceat(values, runs, axis=1), diff[:n])
                _accumulate(hist, values, total[:n])
        if flagged:
            rows, pairs = (np.concatenate(i) for i in zip(*flagged))
            # a near-pole entry costs twelve evaluations: keep each batch a tile
            step = max(1, TILE // _GL_X.size)
            for i in range(0, rows.size, step):
                r, p = rows[i : i + step], pairs[i : i + step]
                _accumulate(h, near(tables[0, :, 0], r, p) * self.weights[p],
                            *(self.bins[:, p] + self.nodes * r))
        return np.fft.rfft(h, axis=1).real

    def tables(self, values: np.ndarray, second, weight=1.0) -> np.ndarray:
        """v, weight sin(v T) and weight second(v T) of every mode for rows
        of values v, as a Hankel view of the tables written twice over along
        the modes: [i, row, d, c] is table i of mode (c + d) mod m."""
        n, m = values.shape[0], self.modes
        x = values * self.t_max
        doubled = np.empty((3, n, 2 * m))
        head = doubled[:, :, :m]
        head[:] = values, weight * np.sin(x), weight * second(x)
        doubled[:, :, m:] = head
        step = doubled.strides
        return np.ndarray((3, n, m // 2 + 1, m), buffer=doubled, strides=(*step, step[2]))

    def _tile(self, tables: np.ndarray, chunk: _Chunk):
        """Per pair of the chunk and row of the block: the three tables of
        mode a and of mode b, copied from the block's `tables`, then the five
        free workspace arrays of the tile."""
        n, m = tables.shape[1], self.modes
        size = n * (chunk.pairs.stop - chunk.pairs.start)
        work = self._workspace[: 11 * size].reshape(11, n, -1)
        at_a, at_b = work[:3], work[3:6]
        rows = chunk.offsets.stop - chunk.offsets.start
        full = rows * m
        np.copyto(at_a[:, :, :full].reshape(3, n, rows, m), tables[:, :, :1])
        np.copyto(at_b[:, :, :full].reshape(3, n, rows, m), tables[:, :, chunk.offsets])
        if chunk.half:  # c < m/2 with c + m/2
            np.copyto(at_a[:, :, full:], tables[:, :, 0, : m // 2])
            np.copyto(at_b[:, :, full:], tables[:, :, m // 2, : m // 2])
        return (at_a[0], at_b[0], at_a[1], at_b[1], at_a[2], at_b[2], *work[6:])

    def probability(self, tables: np.ndarray, chunk: _Chunk):
        """K_ab = sin((lam_a - lam_b) T) / (lam_a - lam_b), weighted, from
        tables of lam with weight g and second cos:
        (sin_a cos_b - cos_a sin_b) / (lam_a - lam_b)."""
        la, lb, sa, sb, ca, cb, *_ = self._tile(tables, chunk)
        sa *= cb
        sa -= np.multiply(ca, sb, out=ca)
        la -= lb
        sa /= la
        return sa, np.abs(la, out=la) < POLE_SPAN / self.t_max

    def probability_near(self, lam: np.ndarray, rows, pairs) -> np.ndarray:
        """The plain quotient (T when degenerate) where |u3| T < POLE_SPAN."""
        return _plain_kernel(lam[rows, pairs % self.modes] - lam[rows, self.ib[pairs]],
                             self.t_max)

    def error_diagonal(self, block: np.ndarray) -> np.ndarray:
        """K_aa = 2 (F(0) - F(delta_a)) = 2 T (1 - sinc(delta_a T))."""
        return 2.0 * self.t_max * _one_minus_sinc(block * self.t_max)

    def error(self, tables: np.ndarray, chunk: _Chunk):
        """The error-numerator kernel K(lam, lam) + K(ref, ref) - K(lam, ref)
        - K(ref, lam), by the product rule of the module docstring:
        u3 K = A1b X - A2b Q + delta_a (P - delta_b S/u0) / u2
               + delta_b (Q - delta_a S/u0) / u1,
        X = S A1a + C A2a, Q = C A1a - S A2a, P = C A1b + S A2b.  The mask
        flags every entry with one of u0..u3 near a pole."""
        da, db, a1a, a1b, a2a, a2b, u1, u2, u3, x, tmp = self._tile(tables, chunk)
        u0, s, c, q0 = chunk.spread[:, : da.shape[0]]
        np.add(u0, da, out=u1)
        np.subtract(u0, db, out=u2)
        np.subtract(u1, db, out=u3)
        np.multiply(s, a1a, out=x)
        x += np.multiply(c, a2a, out=tmp)
        x *= a1b
        # Q and P take the places of the tables that they use last
        q = np.multiply(c, a1a, out=a1a)
        q -= np.multiply(s, a2a, out=a2a)
        x -= np.multiply(a2b, q, out=tmp)
        p = np.multiply(c, a1b, out=a1b)
        p += np.multiply(s, a2b, out=a2b)
        p -= np.multiply(db, q0, out=tmp)
        p *= da
        p /= u2
        x += p
        q -= np.multiply(da, q0, out=tmp)
        q *= db
        q /= u1
        x += q
        x /= u3
        np.minimum(np.abs(u1, out=u1), np.abs(u2, out=u2), out=u1)
        np.minimum(u1, np.abs(u3, out=u3), out=u1)
        np.minimum(u1, self.abs_u0[chunk.pairs], out=u1)
        return x, u1 < POLE_SPAN / self.t_max

    def error_near(self, shifts: np.ndarray, rows, pairs) -> np.ndarray:
        return _near_difference(self.u0[pairs], shifts[rows, pairs % self.modes],
                                -shifts[rows, self.ib[pairs]], self.t_max)


def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    """1 - cos x = 2 sin^2(x/2), without cancellation at small x."""
    return 2.0 * np.sin(0.5 * x) ** 2


def _accumulate(hist: np.ndarray, values: np.ndarray, *bins) -> None:
    """Add each value to its flat bin in each of `bins` of `hist`."""
    w = values.ravel()
    flat = hist.reshape(-1)
    for b in bins:
        flat += np.bincount(b.ravel(), w, flat.size)


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, refused when the window integrals overflowed to inf or nan."""
    if not np.isfinite(values).all():
        raise ValueError("window integrals are not finite: t_max too large for this spectrum")
    return values


def _mode_errors(
    nodes: int, lam_ref: np.ndarray, shifts: np.ndarray, t_max: float
) -> np.ndarray:
    """Truncation errors (columns: independent targets) of the spectra
    lam_ref + each row of shifts against the reference spectrum lam_ref."""
    with np.errstate(all="ignore"):
        pairs = _PairKernels(nodes, t_max, shifts.shape[0], lam_ref)
        forms = pairs.map(pairs.error_diagonal(shifts), pairs.tables(shifts, _one_minus_cos),
                          pairs.error, pairs.error_near)
    num, den = forms[:-1], forms[-1]
    # a form rounds by up to about modes * eps * T (|K| <= T, weights
    # summing to 1): a target the reference never reaches shows as a den
    # that small, and an exactly zero error as a num of either sign
    bound = pairs.modes * _EPS * t_max
    if (_finite(den) <= bound).any():
        raise ValueError("degenerate window: reference amplitude has no power")
    if (_finite(num) < -bound).any():
        raise ValueError("negative truncation-error power: the window integrals "
                         "lost their precision")
    # each row's own bound: off the poles every product-rule term is at most
    # about T min(1, T max|delta|)^2, since |A1| <= min(1, |delta| T),
    # |A2| <= (delta T)^2 / 2 and 1/|u| <= T.  A num within it reads as an
    # exact 0, so an error is right to sqrt(row bound / den) absolute and a
    # nonzero one is never pure rounding
    row_bound = bound * np.minimum(1.0, t_max * np.abs(shifts).max(axis=1)) ** 2
    return np.where(num <= row_bound[:, None], 0.0, np.sqrt(np.maximum(num, 0.0) / den))


def probability_map(
    nodes: int, profile: CouplingProfile, window: TimeWindow
) -> np.ndarray:
    """Averaged probabilities for every truncation radius.

    Returns an array of shape (max_neighbors, targets): row M-1 holds the
    window-averaged probabilities 1 -> n for n in independent_targets.
    """
    lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
    with np.errstate(all="ignore"):
        pairs = _PairKernels(nodes, window.t_max, shifts.shape[0])
        tables = pairs.tables(lam_ref + shifts, np.cos, mode_multiplicities(nodes) / nodes)
        forms = pairs.map(pairs.t_max, tables, pairs.probability, pairs.probability_near)
    return _finite(np.maximum(forms, 0.0) / window.t_max)


def error_map(
    nodes: int, profile: CouplingProfile, window: TimeWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation errors for every radius and target.

    Returns (errors, means): errors has shape (max_neighbors, targets) and
    means the parity-weighted average per radius.  The full-range row is
    exactly zero, because it reproduces the reference.
    """
    lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
    errors = np.zeros((shifts.shape[0], mode_count(nodes)))
    errors[:-1] = _mode_errors(nodes, lam_ref, shifts[:-1], window.t_max)
    means = (errors @ mode_multiplicities(nodes)) / nodes
    return errors, means


def state_error(nodes: int, profile: CouplingProfile, window: TimeWindow) -> np.ndarray:
    """Relative L2 error of the whole state evolved from site 1, one per
    radius M = 1..max_neighbors:

        E(M)^2 = (1/T) int_0^T ||(U_M - U)|1>||^2 dtau
               = (2/N) sum_a mult_a (1 - sinc(delta_a T)),

    delta the eigenvalue shifts of the radius.  It is the Parseval sum of
    the map: sum_n mult_n err_n^2 P_ref,n over the independent targets n.
    """
    _, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
    with np.errstate(all="ignore"):
        power = _finite(_one_minus_sinc(shifts * window.t_max) @ mode_multiplicities(nodes))
    return np.sqrt(2.0 / nodes * power)


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest truncation radius meeting a worst-case error tolerance."""

    min_neighbors: int
    epsilon: float
    max_error_per_m: np.ndarray  # worst error over targets, index M-1

    def __post_init__(self):
        tail = self.max_error_per_m[self.min_neighbors - 1 :]
        if np.any(tail > self.epsilon):
            raise ValueError("threshold does not dominate its suffix")


def accuracy_threshold(
    nodes: int, profile: CouplingProfile, epsilon: float, window: TimeWindow
) -> ThresholdResult:
    """Minimal M such that the worst-case truncation error stays at or below
    epsilon for every radius from M up to all-node interaction.

    The per-radius worst errors are returned alongside so the monotonicity
    of the sweep can be audited.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    errors, _ = error_map(nodes, profile, window)
    worst = errors.max(axis=1)
    failing = np.nonzero(worst > epsilon)[0]
    m_star = int(failing.max()) + 2 if failing.size else 1
    return ThresholdResult(
        min_neighbors=m_star, epsilon=epsilon, max_error_per_m=worst
    )
