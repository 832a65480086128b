"""Cone-hull membership and Cesaro equidistribution on finite ground sets.

Radon measures on X = {1..n} are nonnegative weight vectors; the weak-*
topology is realized as the sup norm.  Membership of a target measure in
the closed convex cone spanned by a finite family is decided exactly.  Float
data are dyadic rationals, so one power-of-two scale turns them into
integers without rounding, and all arithmetic is fraction-free (Bareiss) on
Python ints.  A family of full column rank whose unique solution is
nonnegative is a member by one Gauss elimination; every other target runs
phase 1 of a dense simplex.  When the feasibility LP is infeasible, its
phase-1 duals y are a Farkas functional, and ``<y, mu0> / ||y||_1`` bounds
the sup-norm defect of every conic combination from below; a target whose
bound exceeds the tolerance is a non-member with f = y, and only
near-members run a second phase 1, on the band of targets within the
tolerance in sup norm.  Member coefficients that reconstruct the target
exactly (or to within the tolerance, for near-members) and separating
functionals that satisfy their sign conditions are checked by integer sums,
then issued as their nearest doubles, exact where the rationals are dyadic.

The equidistribution side builds sequences whose Cesaro means of
normalized measures (or mass-weighted means, for structured families)
converge to the normalized target; selection is greedy nearest-mean in sup
norm with lowest-index tie-breaking.  Each step divides a candidate's trial
sum by its mass; with unit masses that mass is the step count, a scalar
divisor with the same bits as the column of masses, and cheaper.  One rule
speculates: after every 32 single steps, the last 32 picks are looked up
among the recent ones, and on a repeat the next steps are guessed from it
and evaluated as one batch with the step's ufuncs on the step's operands.
The prefix up to the first wrong guess is kept, so every trace is the
one-step loop's, bit for bit; a batch that verifies whole is followed by
another lookup at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fsio import atomic_write_text, csv_text, is_number_list, read_json

__all__ = [
    "FiniteMeasure",
    "FamilyStructure",
    "MeasureFamily",
    "MembershipCertificate",
    "EquidistTrace",
    "cone_hull_membership",
    "RationalApproximation",
    "rational_approximation",
    "cesaro_sequence",
    "weighted_cesaro_structured",
    "load_instance",
    "write_trace_csv",
]

MAX_GROUND_SET = 64
MAX_FAMILY = 64
# Cap on the scale L of the integer image: every weight of at least 2**-76
# (about 1.3e-23) stays within it, while one subnormal weight would make L
# 2**1074 and a 32 x 32 query take over a minute.
MAX_IMAGE_SCALE = 2**128
# Cap on the greedy steps of one Cesaro sequence (100x the CLI default).
MAX_SEQUENCE_STEPS = 1_000_000
# Cap on the common denominators one rational approximation sweeps.
MAX_DENOMINATOR = 10**8


@dataclass(frozen=True)
class FiniteMeasure:
    """Nonnegative weight vector over the ground set {1..n}, of finite total
    mass."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("measure weights must form a non-empty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("measure weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(w)):
                raise ValueError("measure weights must have a finite total mass")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class FamilyStructure:
    """Generating set W with the mass bounds (c, C) of its measures."""

    base: tuple[FiniteMeasure, ...]
    mass_bounds: tuple[float, float]

    def __post_init__(self):
        if not self.base:
            raise ValueError("structured family needs a non-empty base set")
        c, big_c = self.mass_bounds
        if not (0.0 < c <= big_c):
            raise ValueError(f"mass bounds must satisfy 0 < c <= C, got ({c}, {big_c})")


@dataclass(frozen=True)
class MeasureFamily:
    """Finite family of measures, optionally with generating structure."""

    members: tuple[FiniteMeasure, ...]
    structure: FamilyStructure | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("measure family must be non-empty")
        sizes = {m.n for m in self.members}
        if self.structure is not None:
            sizes |= {m.n for m in self.structure.base}
        if len(sizes) != 1:
            raise ValueError("all measures in a family must share the ground set")
        if len(self.members) > MAX_FAMILY:
            raise ValueError(f"family size capped at {MAX_FAMILY}")

    @property
    def n(self) -> int:
        return self.members[0].n


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a cone-hull membership query.

    Member certificates carry conic coefficients indexed into the family;
    non-member certificates carry a separating functional f with
    ``<f, mu0> > 0`` and ``<f, mu> <= 0`` for every family member.  Both
    are verified by integer sums on the image ``[L·A | L·b]`` of the data
    and issued as their nearest doubles, which are exact only where the
    rationals are dyadic.
    """

    verdict: str
    coefficients: tuple[tuple[int, float], ...] | None = None
    separating_f: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.verdict not in ("member", "non_member"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "member" and self.coefficients is None:
            raise ValueError("member certificate needs coefficients")
        if self.verdict == "non_member" and self.separating_f is None:
            raise ValueError("non-member certificate needs a separating functional")


@dataclass(frozen=True)
class EquidistTrace:
    """Selected indices and the running sup-norm Cesaro errors."""

    sequence: tuple[int, ...]
    cesaro_errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.sequence) != len(self.cesaro_errors):
            raise ValueError("sequence and error trace must have equal length")
        # min skips a NaN after the first element but returns a leading one,
        # so only then must every error be compared.
        errors = self.cesaro_errors
        lowest = min(errors, default=0.0)
        if lowest < 0.0 or (lowest != lowest and any(e < 0.0 for e in errors)):
            raise ValueError("Cesaro errors must be nonnegative")


# ---------------------------------------------------------------------------
# Phase-1 simplex on an integer tableau (dense, Bland's rule, fraction-free).
# ---------------------------------------------------------------------------

def _bareiss_row(row: list[int], prow: list[int], col: int, p: int, d: int) -> list[int]:
    """``row`` after a fraction-free pivot on ``p = prow[col]``, where ``d``
    is the previous pivot; the divisions are exact."""
    f = row[col]
    if f == 0:
        return row if p == d else [p * v // d for v in row]
    if d == 1:
        return [p * v - f * w for v, w in zip(row, prow)]
    return [(p * v - f * w) // d for v, w in zip(row, prow)]


class _Simplex:
    """Phase 1 of a dense simplex in exact integer arithmetic.

    Decides whether ``A x = b, x >= 0`` is feasible, for integer A and
    b >= 0, by minimizing the sum of one artificial variable per row from the
    all-artificial basis.  Bland's rule guarantees termination; the problem
    sizes here are desk scale, so no sparsity or revised-form machinery is
    needed.

    The tableau ``[A | I | b]`` holds Python ints, with the artificial
    columns kept as the identity; its last row holds the reduced costs, with
    minus the objective in the rhs entry.  Pivoting is fraction-free
    (Bareiss, Math. Comp. 22, 1968): the rational tableau is ``tab / det``,
    where ``det`` is the last pivot element, and a pivot on ``p`` maps every
    other row to ``(p * row - f * pivot_row) / det`` with exact division.
    The ratio test admits only positive pivot elements, so ``det`` stays
    positive, and entering columns and ratio-test rows are chosen by sign and
    by cross-multiplication.  A column times c > 0 has its reduced cost and
    its ratio-test ratios times c, so the pivots and the duals y stay and its
    x is divided by c; all rows times c (the image's L) leave the pivots, x
    and y of the rationals, with the objective c times theirs.
    """

    def __init__(self, columns: list[list[int]], b: list[int]):
        self.m = len(b)
        self.n_struct = len(columns)
        # Tableau columns: structural variables then artificials then rhs.
        rows = [
            [col[i] for col in columns] + [int(i == k) for k in range(self.m)] + [b[i]]
            for i in range(self.m)
        ]
        # Reduced costs c_j - sum_r row_r[j], with cost 1 on the artificials.
        reduced = [-sum(column) for column in zip(*rows)]
        reduced[self.n_struct : self.n_struct + self.m] = [0] * self.m
        self.tab = rows + [reduced]
        self.det = 1
        self.basis = [self.n_struct + i for i in range(self.m)]

    def _pivot(self, row: int, col: int) -> None:
        tab = self.tab
        prow = tab[row]
        p = prow[col]
        d = self.det
        for r in range(self.m + 1):
            if r != row:
                tab[r] = _bareiss_row(tab[r], prow, col, p, d)
        self.det = p
        self.basis[row] = col

    def solve(self) -> tuple[int, list[int], list[int], int]:
        """Run phase 1; returns integers (objective, x, y) and d > 0, each
        value over d.

        The objective is the least sum of the artificials, 0 exactly when the
        system is feasible, and x the final basic solution.  When the
        objective is positive, the duals y are a Farkas functional:
        ``<y, b>`` equals the objective and ``<y, A_j> <= 0`` for every
        column.
        """
        tab, basis, m = self.tab, self.basis, self.m
        width = self.n_struct + m
        while True:
            entering = next((j for j in range(width) if tab[m][j] < 0), None)
            if entering is None:
                break
            # The objective is bounded below by 0, so the entering column has
            # a positive entry; the ratio test compares tab[r][-1] / coeff by
            # cross-multiplying.
            best = None
            for r in range(m):
                coeff = tab[r][entering]
                if coeff > 0:
                    if best is None:
                        best = r
                        continue
                    lhs = tab[r][-1] * tab[best][entering]
                    rhs = tab[best][-1] * coeff
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                        best = r
            self._pivot(best, entering)
        det, reduced = self.det, tab[m]
        x = [0] * self.n_struct
        for row, j in zip(tab, basis):
            if j < self.n_struct:
                x[j] = row[-1]
        # The reduced cost of the i-th artificial is 1 - y_i.
        y = [det - c for c in reduced[self.n_struct : width]]
        return -reduced[-1], x, y, det


def _integer_image(vectors: list[np.ndarray]) -> tuple[list[list[int]], int]:
    """Integer vectors ``L * v`` and the least power of two L that makes them
    integers; exact, since every double is a dyadic rational.

    Raises:
        ValueError: L above ``MAX_IMAGE_SCALE`` (raised before any
            elimination or pivot).
    """
    ratios = [[v.as_integer_ratio() for v in vector.tolist()] for vector in vectors]
    scale = max(den for ratio in ratios for _, den in ratio)
    if scale > MAX_IMAGE_SCALE:
        raise ValueError(
            f"exact membership needs the weights times 2**{scale.bit_length() - 1} "
            f"to make them integers, above the cap of 2**{MAX_IMAGE_SCALE.bit_length() - 1}; "
            f"weights of at least 2**-76 (about 1.3e-23) stay within it"
        )
    return [[num * (scale // den) for num, den in ratio] for ratio in ratios], scale


def _eliminate(columns: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """The solution ``x = X / d`` (integers X, d > 0) of ``A x = b`` for
    integer columns A and rhs b, by fraction-free Gauss elimination with the
    ``_bareiss_row`` rule; None if A has short column rank or the system is
    inconsistent.

    Forward elimination pivots on the first nonzero entry of each column, so
    the last pivot is the minor of A on the pivot rows, and d its absolute
    value.  Every row stays a combination of the equations, and ``d x`` is
    an integer vector by Cramer's rule, so each back-substitution division
    is exact.  Rows keep only their entries from the current column on; the
    others are zero.
    """
    m = len(columns)
    rows = [list(row) for row in zip(*columns, rhs)]
    d = 1
    for k in range(m):
        pivot = next((r for r in range(k, len(rows)) if rows[r][0]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        prow = rows[k]
        p = prow[0]
        rows[k + 1:] = [_bareiss_row(row, prow, 0, p, d)[1:] for row in rows[k + 1:]]
        d = p
    if any(row[0] for row in rows[m:]):
        return None
    x = [0] * m
    for k in reversed(range(m)):
        row = rows[k]
        x[k] = (d * row[-1] - sum(map(operator.mul, row[1:-1], x[k + 1:]))) // row[0]
    return (x, d) if d > 0 else ([-v for v in x], -d)


def cone_hull_membership(
    mu0: FiniteMeasure, family: MeasureFamily, tol: float = 1e-9
) -> MembershipCertificate:
    """Decide whether mu0 lies in the closed cone generated by the family.

    The feasibility system ``A x = b, x >= 0`` (columns of A the members,
    b = mu0) is decided exactly on its integer image ``[L A | L b]``, L the
    least common denominator (a power of two for float data).  When the
    family has no more members than points, one fraction-free Gauss
    elimination (``_eliminate``) runs first; if A has full column rank, the
    system is consistent and its solution x is >= 0, that x is the only
    solution, hence the point where phase 1 would stop (every pivot phase 1
    makes after its objective reaches 0 is degenerate), and the verdict is
    "member" with that x.  The route depends on the shape alone: m <= n
    members on n points try the elimination first, whatever the data.  Every
    case it does not decide (short rank, an inconsistent system, a negative
    component, more members than points) runs the exact phase-1 simplex on
    the image itself, as below.

    If the system is infeasible, phase 1 ends with a positive objective and
    its duals y form a Farkas functional: ``<y, b> > 0`` and ``<y, A_j> <= 0``
    for every member.  Since ``<y, b> <= <y, b - A x> <= ||y||_1 ||A x - b||_inf``
    for every x >= 0, the sup-norm defect of every conic combination is at
    least ``<y, b> / ||y||_1``; when that bound exceeds ``tol`` the verdict is
    "non_member" with f = y; with tol = p / q (q a power of two), the test
    runs in integers on the image.  Only near-members, whose bound is at most
    ``tol``, run a second phase 1, on the band ``|A x - b| <= tol, x >= 0``
    with the image as its matrix and tol in its rhs (``_band_program``):
    "member" when it is feasible, that is when the least sup-norm defect is
    at most ``tol``, and otherwise the first n components of its Farkas duals
    separate.  Integer sums on the image verify a certificate before it is
    issued in nearest doubles: member coefficients reconstruct the target to
    within 0 (elimination or first solve) or ``tol`` (band solve: within
    ``floor(d L tol)`` on the image for coefficients over d), and a
    separating functional satisfies its sign conditions.

    Raises:
        ValueError: ground set above the supported size, a tol that is not
            positive and finite, mismatched dimensions, a degenerate
            all-zero family, or an image scale L above ``MAX_IMAGE_SCALE``.
    """
    if mu0.n > MAX_GROUND_SET:
        raise ValueError(f"ground set capped at {MAX_GROUND_SET} points")
    if mu0.n != family.n:
        raise ValueError("target and family live on different ground sets")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if all(m.total_mass == 0.0 for m in family.members):
        raise ValueError("degenerate family: every member is the zero measure")

    image, scale = _integer_image([m.weights for m in family.members] + [mu0.weights])
    image_b = image.pop()
    if len(image) <= mu0.n:
        solution = _eliminate(image, image_b)
        if solution is not None and min(solution[0]) >= 0:
            return _member_certificate(*solution, 0, image, image_b)

    defect, x, y, d = _Simplex(image, image_b).solve()
    if defect == 0:
        return _member_certificate(x, d, 0, image, image_b)
    # Phase 1 ended positive, so y / d is a Farkas functional and the data's
    # defect is defect / (d L) = <y, b> / d; with tol = p / q, the test
    # defect / (d L) > tol ||y / d||_1 runs in integers.
    p, q = tol.as_integer_ratio()
    if defect * q > p * scale * sum(map(abs, y)):
        return _separating_certificate(y, d, image, image_b)

    unit = max(scale, q)
    lift, band_tol = unit // scale, p * unit // q
    excess, x, y, d = _Simplex(*_band_program(image, image_b, lift, band_tol)).solve()
    if excess == 0:
        return _member_certificate(x[: len(image)], d * lift, d * band_tol, image, image_b)
    return _separating_certificate(y[: mu0.n], d, image, image_b)


def _band_program(image: list[list[int]], image_b: list[int], lift: int, band_tol: int):
    """Integer columns and rhs of a system, with slacks s, w >= 0, that is
    feasible exactly when some x >= 0 has ``||sum x_j col_j - b||_inf <= tol``,
    for the data A and b whose image of scale L is ``[image | image_b]``:

    rows i:      (A x)_i + s_i = b_i + tol
    rows n + i:  s_i + w_i     = 2 tol

    every row times M = max(L, q), q the denominator of tol = p / q (both
    powers of two), in ``x' = lift x``, ``s' = M s``, ``w' = M w`` with
    lift = M / L and ``band_tol = p M / q``: the image padded with n zeros,
    0/1 slacks, and tol in the rhs alone.  Columns times positive factors
    keep the pivots and duals y (``_Simplex``), and the solution is x'.

    Every rhs is positive.  A Farkas functional y of an infeasible band gives
    ``sum_i y_i (col_j)_i <= 0`` from the x columns, ``y_i + y_{n+i} <= 0``
    from the s columns and ``y_{n+i} <= 0`` from the w columns, so its
    positive pairing with the rhs forces ``sum_i y_i b_i > 0``:
    f = (y_0, ..., y_{n-1}) separates b from the cone.
    """
    n = len(image_b)
    # Slack k is 1 on rows k and n + k: s_i for k = i, w_i for k = n + i.
    slacks = [[int(r in (k, n + k)) for r in range(2 * n)] for k in range(2 * n)]
    rhs = [lift * bi + band_tol for bi in image_b] + [2 * band_tol] * n
    return [col + [0] * n for col in image] + slacks, rhs


def _separating_certificate(f, d, image, image_b) -> MembershipCertificate:
    """Non-member certificate for the functional ``f / d`` (integers f and
    d > 0) after exact checks of its sign conditions on the integer image,
    which d and the image's scale leave unchanged."""
    if sum(map(operator.mul, f, image_b)) <= 0 or any(
        sum(map(operator.mul, f, col)) > 0 for col in image
    ):
        raise ArithmeticError("separating functional failed exact verification")
    return MembershipCertificate(verdict="non_member", separating_f=tuple(v / d for v in f))


def _member_certificate(x, d, bound: int, image, image_b) -> MembershipCertificate:
    """Member certificate for the coefficients ``x_j / d`` after an exact
    check on the integer image: every component of ``sum x_j col_j - d b``
    is at most ``bound`` in absolute value (``floor(d L tol)`` for a target
    within tol of the cone, L the image's scale)."""
    support = [(xj, col) for xj, col in zip(x, image) if xj != 0]
    for i, bi in enumerate(image_b):
        if abs(sum(xj * col[i] for xj, col in support) - d * bi) > bound:
            raise ArithmeticError("member certificate failed exact verification")
    return MembershipCertificate(
        verdict="member",
        coefficients=tuple((j, xj / d) for j, xj in enumerate(x) if xj != 0),
    )


@dataclass(frozen=True)
class RationalApproximation:
    """Common-denominator approximation with positive integer numerators."""

    d: int
    numerators: tuple[int, ...]


def rational_approximation(alphas, eps: float) -> RationalApproximation:
    """Smallest common denominator d with |alpha_i - c_i/d| < eps/N for all i.

    Sweeps denominators in increasing order, each numerator the nearest
    positive integer to alpha_i d, from the least d at which every
    coordinate alone can meet the bound (found exactly, by
    ``_least_denominator``), so no smaller d meets it, and an eps for which
    that d passes ``MAX_DENOMINATOR`` is refused before any sweep.  The sweep
    runs in doubles against the bound plus a few ulps of slack, so it drops
    no d that meets the bound; it only filters.  Each d it keeps is decided
    exactly in integers, from the ratios of the doubles alpha_i and eps, and
    the sweep goes on past a d that fails.  A kept d whose numerators share a factor g > 1 with it
    repeats the fractions of d / g, which the sweep has already refused, so
    it is dropped without the exact test.

    Raises:
        ValueError: non-positive alphas, an eps that is not positive and
            finite, or an eps whose sweep would pass ``MAX_DENOMINATOR``
            without meeting the bound.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must form a non-empty 1-D array")
    if np.any(alphas <= 0.0) or not np.all(np.isfinite(alphas)):
        raise ValueError("all alphas must be positive finite reals")
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    count = alphas.size
    target = eps / count
    # Rounding alone achieves 1/(2d) < eps/N once d > N/(2 eps), and the
    # positivity clamp to numerator 1 succeeds once d > 1/(min(alpha) + eps/N),
    # a margin below N/eps however small the alphas.
    reach = np.ceil(count / (2.0 * eps) + 1.0 / (float(np.min(alphas)) + target)) + 2
    d_cap = int(min(reach, MAX_DENOMINATOR))
    # The float distance is off the exact one by at most a few ulps of alpha_i
    # and of eps/N, also where rint(alpha_i d) takes the other neighbour of a
    # midpoint, so this bound keeps every d that meets the exact one.
    bound = target + 2.0**-50 * (alphas + target)
    ratios = [a.as_integer_ratio() for a in alphas.tolist()]
    p, q = float(eps).as_integer_ratio()
    q *= count  # eps/N = p/q
    # A d that meets the bound holds, for each i, a fraction c_i / d with
    # c_i >= 1 in the open interval (max(alpha_i - eps/N, 0), alpha_i + eps/N),
    # so the sweep starts at the largest of their least such d.  When that d
    # is past the cap, so is reach, and eps is refused without a sweep.
    start = max(_least_denominator(max(a * q - p * b, 0), b * q, a * q + p * b, b * q)
                for a, b in ratios)
    block = 4096
    while start <= d_cap:
        stop = min(start + block, d_cap + 1)
        ds = np.arange(start, stop, dtype=float)[:, None]
        # A product alpha_i d that overflows passes the filter, and the exact
        # test decides it.
        with np.errstate(over="ignore", invalid="ignore"):
            products = alphas[None, :] * ds
            numerators = np.maximum(np.rint(products), 1.0)
            close = np.abs(alphas - numerators / ds) <= bound
            rows = np.flatnonzero(np.all(close | np.isinf(products), axis=1))
            if rows.size:
                # A float numerator is the exact one where alpha_i d is below
                # 2**53 and, to within its own rounding, off the midpoints;
                # others count as 1, which shares no factor.
                kept = products[rows]
                sure = (kept < 2.0**53) & (np.abs(kept - np.rint(kept)) < 0.5 - np.spacing(kept))
                exact = np.where(sure, numerators[rows], 1.0).astype(np.int64)
                rows = rows[np.gcd(np.gcd.reduce(exact, axis=1), rows + start) == 1]
        for d in (rows + start).tolist():
            c = _exact_numerators(ratios, d, p, q)
            if c is not None:
                return RationalApproximation(d=d, numerators=c)
        start = stop
    if reach > MAX_DENOMINATOR:
        raise ValueError(
            f"eps = {eps} needs a common denominator above {MAX_DENOMINATOR:,}"
        )
    raise ArithmeticError("denominator sweep exhausted; eps bound unreachable")


def _least_denominator(xn: int, xd: int, yn: int, yd: int) -> int:
    """The least d for which some c / d lies in the open interval (xn / xd,
    yn / yd), 0 <= x < y: the denominator of the simplest fraction there,
    found by the continued-fraction walk down the Stern-Brocot tree (Graham,
    Knuth and Patashnik, Concrete Mathematics, section 4.5).

    Each pass either finds the simplest fraction z of the current interval
    or writes z = f + 1 / w, f the shared integer part, and passes to the
    interval of w; the fraction sought is then (h w + h0) / (k w + k0), of
    which only the denominators k, k0 are kept."""
    k, k0 = 0, 1
    while True:
        f = xn // xd
        if (f + 1) * yd < yn:  # the interval holds the integer f + 1
            return k * (f + 1) + k0
        if xn == f * xd:  # (f, y): f + 1/m for the least m with 1/m < y - f
            m = yd // (yn - f * yd) + 1
            return k * (f * m + 1) + k0 * m
        k, k0 = k * f + k0, k
        xn, xd, yn, yd = yd, yn - f * yd, xd, xn - f * xd


def _exact_numerators(ratios, d: int, p: int, q: int) -> tuple[int, ...] | None:
    """The nearest positive numerators c_i (ties to even) of alpha_i d, for
    alpha_i = a_i / b_i given as ``ratios``, if every |alpha_i - c_i / d| is
    below p / q; None otherwise.  Integer arithmetic throughout."""
    numerators = []
    for a, b in ratios:
        c, r = divmod(a * d, b)
        if 2 * r > b or (2 * r == b and c % 2):
            c += 1
        c = max(c, 1)
        if abs(a * d - c * b) * q >= p * b * d:
            return None
        numerators.append(c)
    return tuple(numerators)


# Speculative blocks (see _greedy_trace): picks matched, picks searched,
# cap on B * m * n.
_WINDOW = 32
_LOOKBACK = 4096
_BLOCK_ELEMENTS = 1 << 15


def _greedy_trace(
    target: np.ndarray, candidates: np.ndarray, masses: np.ndarray, k_max: int
) -> EquidistTrace:
    """Greedy nearest-mean selection shared by both Cesaro variants.

    Step k picks the lowest j minimizing ``max(|(running + c_j) / (total +
    m_j) - target|)``, total the mass picked so far.  Each step runs into
    buffers allocated once, laid out coordinates by candidates, (n, m), so
    the trial values share one shape with the tiled target and masses and
    with the running sum, kept in every column: the trial add is a
    same-shape add, and after each pick one more adds the pick's tile (its
    column repeated m times, made once; 2 MiB at the 64 x 64 cap).  Each
    trial element is the same IEEE operation on the same operands as in the
    (m, n) expression, and ``argmin`` takes the same lowest index, so the
    trace is that expression's bit for bit.  With every mass exactly 1.0,
    each ``total + m_j`` is the double k, and the step divides by the scalar
    ``float(k)``: the same bits, where the column division costs about 1.04
    times the step.

    Speculate and verify: after each ``_WINDOW`` single steps from step
    2 * ``_WINDOW`` on, the last ``_WINDOW`` picks are looked up in the last
    ``_LOOKBACK``.  On a hit, the next picks are guessed as the periodic
    continuation, as many as one batch holds or as remain, and
    ``_verified_block`` keeps them up to and including the first pick that
    differs from its guess, and one broadcast copies the first column of the
    sums it advanced to the others.  A fully verified block is followed by
    another lookup at once, anything else by ``_WINDOW`` single steps.  A
    guess only sizes a batch; it never decides a pick or an error.
    """
    add, divide, subtract, absolute = np.add, np.divide, np.subtract, np.absolute
    column_max = np.maximum.reduce
    m, n = candidates.shape
    unit = bool(np.all(masses == 1.0))
    by_coord = np.ascontiguousarray(candidates.T)
    tiled = np.repeat(target[:, None], m, axis=1)
    tiles = list(np.repeat(candidates[:, :, None], m, axis=2))
    sums = np.zeros((n, m))  # the running sum in every column
    trial = np.empty((n, m))
    tiled_masses = np.repeat(masses[None, :], n, axis=0)
    denominators = np.empty((n, m))
    dists = np.empty(m)
    mass_of = masses.tolist()
    total_mass = 0.0
    picks = bytearray()  # every pick is below MAX_FAMILY, so one byte
    errors = []
    capacity = max(1, _BLOCK_ELEMENTS // (m * n))
    # A block's running sums, total masses, trials, denominators, distances.
    buffers = (np.empty((n, capacity)), np.empty(capacity), np.empty((n, m, capacity)),
               np.empty((m, capacity)), np.empty((m, capacity)))
    next_try = 2 * _WINDOW
    while len(picks) < k_max:
        for k in range(len(picks) + 1, min(next_try, k_max) + 1):
            add(sums, by_coord, trial)
            if unit:
                divide(trial, float(k), trial)
            else:
                add(total_mass, tiled_masses, denominators)
                divide(trial, denominators, trial)
            subtract(trial, tiled, trial)
            absolute(trial, trial)
            column_max(trial, axis=0, out=dists)
            pick = int(dists.argmin())  # argmin takes the lowest index on ties
            picks.append(pick)
            errors.append(dists.item(pick))
            add(sums, tiles[pick], sums)
            total_mass += mass_of[pick]
        done = len(picks)
        if done == k_max:
            break
        at = picks.rfind(picks[-_WINDOW:], max(0, done - _LOOKBACK), done - 1)
        if at >= 0:
            period = picks[at + _WINDOW:]
            count = min(capacity, k_max - done)
            guess = (period * (count // len(period) + 1))[:count]
            kept, block_errors, total_mass = _verified_block(
                guess, sums[:, 0], total_mass, tiled, by_coord, masses, buffers)
            sums[:, 1:] = sums[:, :1]
            picks += kept
            errors += block_errors
            if kept == guess:
                next_try = len(picks)
                continue
        next_try = len(picks) + _WINDOW
    return EquidistTrace(sequence=tuple(picks), cesaro_errors=tuple(errors))


def _verified_block(guess, running, total_mass, tiled, by_coord, masses, buffers):
    """The next greedy steps as one batch, on the guess that they pick
    ``guess`` (bytes).

    ``running`` (n,), the first column of the running sums, ``tiled`` and
    ``by_coord`` (n, m) are arrays of ``_greedy_trace``.  ``np.add.accumulate``
    over ``[running, candidates[guess[:-1]]]`` forms the running sum before
    each step by the loop's additions in its order, and the total masses
    likewise; the loop's ufuncs then run on an (n, m, B) stack, steps last.
    Every step divides by ``total + m_j``, which for unit masses is the
    double k, the loop's scalar divisor.  Every step up to the first pick
    that differs from its guess had the loop's operands, so it is the loop's
    step.  Returns those picks (bytes), their errors and the total mass
    after them, and advances ``running`` past them in place.
    """
    count = len(guess)
    sums, totals, trial, denominators, dists = (a[..., :count] for a in buffers)
    order = np.frombuffer(guess, dtype=np.uint8)
    sums[:, 0] = running
    np.take(by_coord, order[:-1], axis=1, out=sums[:, 1:])
    np.add.accumulate(sums, axis=1, out=sums)
    totals[0] = total_mass
    np.take(masses, order[:-1], out=totals[1:])
    np.add.accumulate(totals, out=totals)
    np.add(sums[:, None, :], by_coord[:, :, None], out=trial)
    np.add(totals, masses[:, None], out=denominators)
    np.divide(trial, denominators, out=trial)
    np.subtract(trial, tiled[:, :, None], out=trial)
    np.absolute(trial, out=trial)
    np.maximum.reduce(trial, axis=0, out=dists)
    chosen = dists.argmin(axis=0)  # lowest index on ties, step by step
    misses = np.flatnonzero(chosen != order)
    kept = count if misses.size == 0 else int(misses[0]) + 1
    last = int(chosen[kept - 1])
    np.add(sums[:, kept - 1], by_coord[:, last], out=running)
    errors = dists[chosen[:kept], np.arange(kept)].tolist()
    return (guess[: kept - 1] + bytes((last,)), errors,
            totals.item(kept - 1) + masses.item(last))


def _cesaro_trace(mu0, family, cone, candidates, masses, k_max, tol) -> EquidistTrace:
    """The checks both Cesaro variants share, then the greedy trace toward
    the normalized ``mu0``; ``cone`` names ``family``'s cone in a refusal."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if mu0.total_mass <= 0.0:
        raise ValueError("the target measure must have positive mass")
    if cone_hull_membership(mu0, family, tol).verdict != "member":
        raise ValueError(
            f"target is not in the {cone} cone; see cone_hull_membership "
            "for the separating certificate"
        )
    return _greedy_trace(mu0.weights / mu0.total_mass, candidates, masses, k_max)


def cesaro_sequence(
    mu0: FiniteMeasure, family: MeasureFamily, k_max: int, tol: float = 1e-9
) -> EquidistTrace:
    """Greedy sequence whose Cesaro mean of normalized members approaches
    the normalized target in sup norm.

    Raises:
        ValueError: a zero-mass member or target, k_max < 1, or a target
            outside the cone (run cone_hull_membership for the certificate).
    """
    if any(m.total_mass <= 0.0 for m in family.members):
        raise ValueError("every family member needs positive mass for normalization")
    candidates = np.stack([m.weights / m.total_mass for m in family.members])
    return _cesaro_trace(mu0, family, "family", candidates, np.ones(len(candidates)),
                         k_max, tol)


def weighted_cesaro_structured(
    mu0: FiniteMeasure, family: MeasureFamily, k_max: int, tol: float = 1e-9
) -> EquidistTrace:
    """Mass-weighted greedy sequence drawn from the structured base set.

    The running object is ``(sum_i mu_i) / (sum_i mu_i(X))`` over base-set
    picks, compared in sup norm to the normalized target.

    Raises:
        ValueError: missing structure, base measures outside the declared
            mass bounds, k_max < 1, a zero-mass target, or a target outside
            the base cone.
    """
    if family.structure is None:
        raise ValueError("weighted selection needs a structured family")
    base = family.structure.base
    low, high = family.structure.mass_bounds
    for i, m in enumerate(base):
        if not (low <= m.total_mass <= high):
            raise ValueError(
                f"base measure {i} has mass {m.total_mass} outside [{low}, {high}]"
            )
    return _cesaro_trace(mu0, MeasureFamily(members=base), "base-set",
                         np.stack([m.weights for m in base]),
                         np.array([m.total_mass for m in base]), k_max, tol)


# ---------------------------------------------------------------------------
# Instance and report I/O.
# ---------------------------------------------------------------------------


def _measures(rows, key: str) -> tuple[FiniteMeasure, ...]:
    if not isinstance(rows, list) or not all(is_number_list(row) for row in rows):
        raise ValueError(f"{key!r} must be a list of rows of numbers")
    return tuple(FiniteMeasure(np.asarray(row, dtype=float)) for row in rows)


def load_instance(path: str) -> tuple[FiniteMeasure, MeasureFamily]:
    """Read an instance file.  A file that is not a JSON object with an
    integer ``n`` equal to the length of ``mu0``, numeric rows
    ``Y`` (and, in an optional object ``structure``, numeric rows ``W`` and a
    pair ``mass_bounds``) raises a ``ValueError`` that names the file; other
    keys are ignored."""
    payload = read_json(path)
    try:
        if not isinstance(payload, dict) or not is_number_list(payload.get("mu0")):
            raise ValueError("must be a JSON object with a list of numbers 'mu0'")
        mu0 = FiniteMeasure(np.asarray(payload["mu0"], dtype=float))
        n = payload.get("n")
        if type(n) is not int or n != mu0.n:
            raise ValueError(f"n={n!r} is not the integer length of mu0, {mu0.n}")
        structure = None
        if "structure" in payload:
            raw = payload["structure"]
            if not isinstance(raw, dict):
                raise ValueError("'structure' must be a JSON object")
            mass_bounds = raw.get("mass_bounds")
            if not is_number_list(mass_bounds) or len(mass_bounds) != 2:
                raise ValueError("'mass_bounds' must be a pair of numbers")
            structure = FamilyStructure(
                base=_measures(raw.get("W"), "W"),
                mass_bounds=(float(mass_bounds[0]), float(mass_bounds[1])),
            )
        members = _measures(payload.get("Y"), "Y")
        return mu0, MeasureFamily(members=members, structure=structure)
    except ValueError as exc:
        raise ValueError(f"instance file {path}: {exc}") from None


def write_trace_csv(trace: EquidistTrace, path: str) -> None:
    """Write the Cesaro error curve as CSV with header ``k,error``."""
    errors = trace.cesaro_errors
    atomic_write_text(path, csv_text({"k": range(1, len(errors) + 1), "error": errors}))
