"""Thermal-equilibrium sensitivity of fully thermalized probes: the
closed-form QFI of effective two-level spectra and of the oscillator, each as
a list over a grid, the optimal gap and peak QFI in closed form, and the
certificate that the optimum is a true maximum of the energy variance.
"""

import math
from decimal import Context, Decimal, localcontext

from .numerics import NoConvergence, NonFiniteState, excited_degeneracy

_PEAKS = Context(prec=28)  # eleven digits more than a double carries
_NORMAL = 2.2250738585072014e-308  # the smallest normal float
_E1255 = 0.6679091040410121, -1810  # e^{-1255} = m 2^e, m within 1.5e-18: the best-rounded of e^{-1200} .. e^{-1416}


def _exp_neg(y):
    """e^{-y} as a mantissa, 0 from y of about 2000, and a power of two. A subnormal
    e^{-y} carries too few digits: there it is e^{1255 - y} e^{-1255}, 1255 - y exact."""
    value = math.exp(-y)
    if value >= _NORMAL:
        return math.frexp(value)
    m, e = math.frexp(math.exp(1255.0 - y))
    return m * _E1255[0], e + _E1255[1]


def _scaled_square(factor, root, e):
    """factor (root 2^e)^2 with the power of two applied once, to the result; inf from 2^1024."""
    m, k = math.frexp(root)
    q, j = math.frexp(factor * (m * m))
    j += 2 * (k + e)
    return math.ldexp(q, j) if j <= 1024 else math.inf  # q < 1: finite up to 2^1024


def qfi_effective_two_level(xs, n, gap):
    """Closed-form QFI of an n-level probe with a single ground level and an
    (n-1)-fold degenerate excited level at ``gap``, as a list over the
    sequence ``xs`` of ratios x = gap/T.

    Written with decaying exponentials so large x cannot overflow, as
    (n-1) (x^2 e^{-x/2} / (gap (1 + (n-1) e^{-x})))^2. Where e^{-x/2}, x^2, the
    denominator or the squared root leaves the normal floats, the factors are
    split into mantissas and powers of two, which are applied once, to the result.
    """
    degeneracy = excited_degeneracy(n)

    def at(v):
        emh = math.exp(-0.5 * v)
        level = degeneracy * emh * emh + 1.0
        root = v * v * emh / (gap * level)
        if emh >= _NORMAL and v * v >= _NORMAL and gap * level >= _NORMAL and root * root >= _NORMAL:
            return degeneracy * (root * root)
        (mh, eh), (mv, ev), (mg, eg) = _exp_neg(0.5 * v), math.frexp(v), math.frexp(gap)
        if not mh:  # else 0 * 2^k: inf where the powers of v pass 2^1024, as at v = 1e300
            return 0.0
        return _scaled_square(degeneracy, mv * mv * mh / (mg * level), eh + 2 * ev - eg)
    return list(map(at, xs))


def qfi_harmonic_equilibrium(gap, temperatures):
    """Equilibrium QFI of a thermalized harmonic probe, gap^2 / (4 T^4) *
    csch^2(h) with h = gap / 2T, as a list over the sequence ``temperatures``.

    csch^2(h) is written 4 e^{-2h} / expm1(-2h)^2 and the whole form as the
    square ((gap/T) e^{-h} / (T expm1(-2h)))^2, in which no factor overflows
    before the result does. Where e^{-h} is subnormal, expm1(-2h) is -1, and
    e^{-h} and T are split into mantissas and powers of two. Where h is
    subnormal the QFI is 1/T^2, as h^2 csch^2(h) = 1 to every digit a double
    holds; from h of about 2000, 0.
    """
    if gap <= 0 or not all(t > 0 for t in temperatures):
        raise ValueError("gap and temperature must be positive")

    def at(t):
        half = gap / (2.0 * t)
        if half < _NORMAL:  # a subnormal h carries too few digits
            return 1.0 / t / t
        emh = math.exp(-half)
        if emh >= _NORMAL:
            root = gap / t * emh / (t * math.expm1(-2.0 * half))
            return root * root
        (m, e), (mt, et) = _exp_neg(half), math.frexp(t)
        if not m:  # gap / t overflows from h = 9e307, and inf * 0 is NaN
            return 0.0
        return _scaled_square(1.0, gap / t * m / mt, e - et)
    return list(map(at, temperatures))


def _gap_ratio(n, n0):
    """Root x > 2 of (x - 2) - r (x + 2) e^{-x}, r = (n - n0)/n0, checked.

    The function is increasing and concave for x > 0 and its root exceeds
    max(2, ln r), so Newton's iterates from there rise to the root; the loop
    ends once an iterate no longer rises."""
    try:
        r = float(n - n0) / float(n0)
    except OverflowError:
        raise NonFiniteState(f"dimension N={n} with n0={n0} exceeds the float range") from None
    x = max(2.0, math.log(r))
    while True:
        w = r * math.exp(-x)
        step = ((x - 2.0) - (x + 2.0) * w) / (1.0 + (x + 1.0) * w)
        if not x - step > x:
            break
        x -= step
    residual = abs((x - 2.0) / ((x + 2.0) * w) - 1.0)
    if not residual <= 1e-10:
        raise NoConvergence(f"gap equation residual {residual:g} exceeds 1e-10 for n={n}, n0={n0}")
    return x


def optimal_gap(ns, n0s, temperature):
    """Variance-maximizing gaps of (n, n0) probes, n0 levels at 0 and n - n0
    at the gap, for the pairs of the equal-length int sequences ns and n0s.

    The gap is T x*, with x* the root of e^x = ((n-n0)/n0)(x+2)/(x-2).
    Returns three lists (x_star, qfi_peak, excess): x*, the peak QFI
    x^2 p (1-p) / T^2, where p = (n-n0) e^{-x} / (n0 + (n-n0) e^{-x}) is the
    excited population, and the peak variance T^2 x^2 p (1-p) of ground
    degeneracy n0 - 1 less that of n0 (None at n0 = 1). The peaks of an excess
    share one digit at n <= 64 and three at n0 = 1000, so peaks and excess are
    formed in 28-digit decimal arithmetic and rounded once.

    Raises TypeError for a bare number; ValueError for sequences of different
    lengths, n < 2, n0 outside [1, n-1] or a nonpositive temperature;
    NoConvergence when |e^x (x-2) n0 / ((n-n0)(x+2)) - 1| exceeds 1e-10, as
    it does once x* lies too close to 2 to be resolved; NonFiniteState when
    n - n0 or n0 exceeds the float range or T^2 or 1/T^2 is not a normal
    float. A peak or an excess that overflows is returned as inf.
    """
    ns, n0s = list(ns), list(n0s)
    if len(ns) != len(n0s):
        raise ValueError(f"{len(ns)} dimensions and {len(n0s)} ground degeneracies differ in length")
    if any(not 1 <= k0 <= k - 1 for k, k0 in zip(ns, n0s)):
        raise ValueError(f"need n >= 2 and ground degeneracies in [1, n - 1], got n={ns}, n0={n0s}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 1.5e-154 <= temperature <= 6.7e153:  # the peaks divide by T^2, the excesses multiply by it
        raise NonFiniteState(f"temperature T={temperature:g} lies outside [1.5e-154, 6.7e153], "
                             "where T**2 and 1/T**2 are normal floats")
    solved = {}

    def solve(k, k0):
        """x* and the peak variance over T^2, x^2 w k0 / (k0 + w)^2 with w = (k - k0) e^{-x}."""
        if (k, k0) not in solved:
            x = _gap_ratio(k, k0)
            xd = Decimal(x)
            weight = (k - k0) * (-xd).exp()
            solved[k, k0] = x, xd * xd * weight * k0 / (k0 + weight) ** 2
        return solved[k, k0]

    x_star, qfi, excess = [], [], []
    with localcontext(_PEAKS):
        t2 = Decimal(temperature) ** 2
        for k, k0 in zip(ns, n0s):
            x, peak = solve(k, k0)
            x_star.append(x)
            qfi.append(float(peak / t2))
            excess.append(float((solve(k, k0 - 1)[1] - peak) * t2) if k0 > 1 else None)
    return x_star, qfi, excess


def _variance_hessian_diag(f, eps_i, h1, h2):
    """Second derivative of the energy variance in level eps_i at T = 1, with
    f = e^{-eps_i} / Z applied one power at a time: f is about 1/N at the
    excited level, so f^2, or e^{eps_i} against it, would leave the range of
    floats long before the entry does."""
    return f * (
        f * (2.0 * (h2 - 3.0 * h1 * h1 - 4.0 * h1 - 1.0) + 8.0 * (1.0 + h1) * eps_i - 4.0 * eps_i * eps_i)
        + (2.0 + 2.0 * h1 * (2.0 + h1) - h2 - 2.0 * (2.0 + h1) * eps_i + eps_i * eps_i)
    )


def _variance_hessian_offdiag(f_i, f_j, s, h1, h2):
    """Mixed second derivative at T = 1 in two levels of energy sum s, each
    with its factor e^{-eps} / Z, applied one at a time."""
    return f_i * (f_j * (4.0 * h1 * (s - 2.0) + s * (4.0 - s) + 2.0 * h2 - 6.0 * h1 * h1 - 2.0))


def hessian_blocks(n):
    """x_star, the entries (a, b, c, d) and the block eigenvalues (low, high)
    of the variance Hessian at the (n, 1) optimum, for an int n.

    The Hessian in the level energies is dimensionless: the variance scales as
    T^2 at fixed eps/T, so it is formed at T = 1, where the gap is x. The n x n
    matrix has a at (0, 0), c in the rest of row and column 0, b on the rest of
    the diagonal and d elsewhere, from the closed-form second derivatives with
    the stationary-state substitutions Z = 2x/(2+x), <H> = (x-2)/2 and
    <H^2> = x(x-2)/2. Differences of excited levels have eigenvalue b - d; the
    ground level and the uniform excited vector span the block
    [[p, q], [q, s]] = [[a, c sqrt(n-1)], [c sqrt(n-1), b + (n-2) d]],
    whose eigenvalues are m -+ hypot((p - s)/2, q), m = (p + s)/2.
    """
    if n < 2:
        raise ValueError(f"certificate needs n >= 2, got {n}")
    x = _gap_ratio(n, 1)
    z = 2.0 * x / (2.0 + x)
    h1 = (x - 2.0) / 2.0
    h2 = x * (x - 2.0) / 2.0
    ground, excited = 1.0 / z, math.exp(-x) / z
    a = _variance_hessian_diag(ground, 0.0, h1, h2)
    b = _variance_hessian_diag(excited, x, h1, h2)
    c = _variance_hessian_offdiag(ground, excited, x, h1, h2)
    d = _variance_hessian_offdiag(excited, excited, 2.0 * x, h1, h2)
    p, q, s = a, c * math.sqrt(n - 1), b + (n - 2) * d
    mean, radius = (p + s) / 2.0, math.hypot((p - s) / 2.0, q)
    return x, (a, b, c, d), (mean - radius, mean + radius)


def hessian_certificate(ns):
    """Certify the (n, 1) optimum as a maximum of the energy variance for
    each dimension n in the int sequence ns. The numeric eigenvalues are the
    block pair of ``hessian_blocks`` and b - d, (n-2)-fold; the analytic ones
    are the pair eigenvalue, 0 and the shift eigenvalue, in the same order.
    The optimum is certified when b - d is negative (for n > 2) and the block
    has one negative eigenvalue and one within 1e-8 of zero, relative to the
    negative one (or 1): its mode is the uniform energy shift, which the two
    distinct row sums of the Hessian check. No tolerance is applied to b - d,
    whose magnitude falls as 1/n. Returns seven lists, one entry per n: x_star,
    lambda_pair, lambda_shift (None at n = 2), shift_multiplicity,
    eigenvalue_error, zero_mode_residual and certifies_maximum."""
    rows = []
    for k in ns:
        x, (a, b, c, d), (low, high) = hessian_blocks(k)
        # The pair eigenvalue is the bare diagonal entry times n/(n-1), forced by the zero row
        # sums (c = -a/(n-1)); the shift one is halved first, so that 2(n-1) cannot overflow.
        pair = -(x * x - 4.0) / 8.0 * (k / (k - 1))
        shift = -(x - 2.0) / 2.0 / (k - 1)
        errors = [abs(low - pair), abs(high)] + ([abs(b - d - shift)] if k > 2 else [])
        tol = 1e-8 * max(1.0, abs(low))
        certifies = low < -tol and abs(high) <= tol and (b - d < 0.0 or k == 2)
        residual = max(abs(a + (k - 1) * c), abs(c + b + (k - 2) * d))
        rows.append((x, pair, shift if k > 2 else None, k - 2, max(errors), residual, certifies))
    return tuple([row[i] for row in rows] for i in range(7))
