"""Response of the game utility to weak disorder in the transverse fields.

For fields g_j = gbar + delta_g_j the utility expands as

    u(g) = chi(gbar) + du1 + du2 + O(delta^3),
    du1 = (sum_j delta_g_j / N) chi'(gbar),
    du2 = (1/2) sum_{jl} delta_g_j delta_g_l h(j - l),

so the mean effect of zero-mean disorder with covariance C is
E[u] - chi(gbar) ~ (1/2) sum_{jl} C_{jl} h(j - l).  The ring-periodic kernel
h(d) is assembled in momentum space from the exact second variation of the
GHZ overlap product.  Its two extreme contractions have closed forms: the
all-ones covariance (perfectly correlated disorder) gives (sigma^2/2)
chi''(gbar), and the identity covariance (independent site noise) gives
(sigma^2/2) nabla^2 u(gbar).

Bookkeeping note for the kernel: the second variation of the winning
probability contains a term proportional to f_{p1} f_{p2} with no
(j - l)-dependence.  That term is (du1)^2 / (p - 1/2) in disguise, i.e. it
belongs to the square of the first variation, not to the Hessian of the
utility, and it is deliberately excluded from h(d).  Including it breaks the
contraction identities; the finite-difference Hessian test is the arbiter.

All per-mode quantities live on the positive antiperiodic wavenumbers and
come from the subtraction-free eps_k, q_k, cos(theta_k) and sin(theta_k) of
``free_fermion._modes``.  With t_k = tan((theta_k^0 - theta_k)/2) = g sin k / q_k,

    f_k(g) = g sin^2 k / (eps_k^2 q_k) = t_k sin(theta_k) / eps_k,

and chi'(g) = -sum_k f_k.  The kernel's weights over mode pairs are written
once, in ``_pair_weights``, which the Laplacian sums over mode pairs and
its N -> oo limit integrates by ``free_fermion.wavenumber_integral``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .free_fermion import _modes, allowed_wavenumbers, bracketed_root, wavenumber_integral


def f_k(g: float, k) -> np.ndarray:
    """Per-mode response coefficient of the clean utility at coupling g.

    Equal to -(1/eps_k) tan((theta_k - theta_k^0)/2) sin(theta_k), i.e. the
    subtraction-free g sin^2 k / (eps^2 q).  Accepts scalar or array k.
    """
    eps, t, _, st = _mode_arrays(g, k)
    return t * st / eps


def _mode_arrays(g: float, k):
    """(eps, t, cos_theta, sin_theta) at wavenumbers k of any shape."""
    eps, q, ct, st = _modes(g, k)
    return eps, g * np.sin(k) / q, ct, st


def chi_prime(g: float, n_sites: int) -> float:
    """d chi / dg at uniform coupling g: -sum_{k>0} f_k(g)."""
    return -float(np.sum(f_k(g, allowed_wavenumbers(n_sites))))


def chi_double_prime(g: float, n_sites: int) -> float:
    """d^2 chi / dg^2 at uniform coupling g.

    Mode sum of 2 f cos(theta)/eps - f^2/2 - sin^2(theta)/(2 eps^2); negative
    in the ferromagnet (risk averse), positive in the paramagnet, and
    ~ -N^2/8 at the critical point.
    """
    eps, t, ct, st = _mode_arrays(g, allowed_wavenumbers(n_sites))
    f = t * st / eps
    terms = 2.0 * f * ct / eps - 0.5 * f * f - 0.5 * st * st / (eps * eps)
    return float(np.sum(terms))


def laplacian_u(g_bar: float, n_sites: int) -> float:
    """Trace of the utility Hessian, sum_j d^2 u / dg_j^2, at uniform g_bar.

    The contraction for independent site noise, E[u] - chi ~ (sigma^2/2)
    laplacian_u, and equal to N h(0): (2/N) sum of a_plus + a_minus over mode
    pairs, in 64-row blocks that stay in cache.  Tested against a one-site
    stencil N [u(g + h e_0) - 2 u(g) + u(g - h e_0)] / h^2.
    """
    k = allowed_wavenumbers(n_sites)
    total = 0.0
    for rows in np.array_split(k, -(-k.size // 64)):
        a_plus, a_minus = _pair_weights(rows[:, None], k, g_bar)
        total += float(np.sum(a_plus + a_minus))
    return (2.0 / n_sites) * total


def _pair_weights(p1, p2, g: float):
    """Weights (a_plus, a_minus) of cos((p1 + p2) d) and cos((p1 - p2) d) in h(d).

    Broadcast over wavenumber arrays p1 and p2.  The angles enter through
    the half angles of each mode, the larger of cos(theta/2) and sin(theta/2)
    from |cos theta| and the other as sin(theta)/2 over it, so no angle is
    subtracted.  The first-variation cross term is excluded (module docstring).
    """
    modes = []
    for p in (p1, p2):
        eps, t, ct, st = _mode_arrays(g, p)
        big = np.sqrt(0.5 * (1.0 + np.abs(ct)))
        small, up = st / (2.0 * big), ct >= 0.0
        modes.append((eps, t, t / eps, np.where(up, big, small), np.where(up, small, big)))
    (e1, t1, r1, c1, s1), (e2, t2, r2, c2, s2) = modes
    tt = t1 * t2
    s = e1 + e2
    sc, cs = s2 * c1, c2 * s1  # sin(theta2/2) cos(theta1/2), cos(theta2/2) sin(theta1/2)
    sin_diff, sin_sum = sc - cs, sc + cs  # sin((theta2 -+ theta1)/2)
    cc, ss = c1 * c2, s1 * s2
    a_plus = (tt - 1.0) * sin_diff**2 + s * sin_diff * (cc + ss) * (r2 - r1)
    a_minus = s * sin_sum * (cc - ss) * (r1 + r2) - (tt + 1.0) * sin_sum**2
    s *= s
    return a_plus / s, a_minus / s


@dataclass(frozen=True)
class HessianKernel:
    """Ring-periodic second derivative of u versus site separation.

    The kernel does not depend on the disorder, so one kernel per (N, g)
    serves every covariance through ``contract``.
    """

    base_coupling: float
    n_sites: int
    values: np.ndarray  # h(d) for d = 0..N-1; h(d) = h(N-d)

    def matrix(self) -> np.ndarray:
        """The full Hessian h((j - l) mod N) as an N x N array."""
        return self.values[_ring_offsets(self.n_sites)]

    def contract(self, covariance: "CovarianceMatrix") -> "SecondVariationReport":
        """Mean second-order utility shift under a disorder covariance.

        du2 = (1/2) sum_{jl} C_{jl} h((j - l) mod N) = (1/2) sum_d h(d) w_d,
        with w_d the covariance's wrapped diagonal sums.  The rescaled field
        is du2 / (N sigma^2), the quantity plotted against coupling and
        correlation length.
        """
        n = self.n_sites
        if covariance.entries.shape != (n, n):
            raise ValueError("covariance shape does not match the chain length")
        value = 0.5 * float(self.values @ covariance.wrapped)
        denom = n * covariance.sigma**2
        return SecondVariationReport(
            g_bar=self.base_coupling,
            n_sites=n,
            kind=covariance.kind,
            sigma=covariance.sigma,
            value=value,
            rescaled=value / denom if denom > 0.0 else math.nan,
        )


def _ring_offsets(n_sites: int) -> np.ndarray:
    """(j - l) mod N for every site pair: the circulant index of h."""
    idx = np.arange(n_sites)
    return (idx[:, None] - idx[None, :]) % n_sites


def hessian_kernel(g_bar: float, n_sites: int) -> HessianKernel:
    """Assemble h(d) = d^2 u / dg_j dg_{j+d} at uniform coupling g_bar.

    Momentum-space double sum with cos((p1 + p2) d) and cos((p1 - p2) d)
    weights.  Both p1 +- p2 are integer multiples of 2 pi / N, so the sum
    collapses onto N Fourier buckets first, and the d-dependence is the real
    part of one real FFT of the bucket weights.  That FFT gives d = 0..N/2;
    the rest is mirrored, so h(d) = h(N - d) holds by construction.
    """
    k = allowed_wavenumbers(n_sites)
    a_plus, a_minus = _pair_weights(k[:, None], k[None, :], g_bar)
    idx = np.arange(k.size)
    bucket_plus = (idx[:, None] + idx[None, :] + 1) % n_sites
    bucket_minus = (idx[:, None] - idx[None, :]) % n_sites
    coeff = np.bincount(bucket_plus.ravel(), weights=a_plus.ravel(), minlength=n_sites)
    coeff += np.bincount(bucket_minus.ravel(), weights=a_minus.ravel(), minlength=n_sites)

    half = np.fft.rfft(coeff).real
    values = (2.0 / n_sites**2) * np.concatenate((half, half[-2:0:-1]))
    return HessianKernel(base_coupling=g_bar, n_sites=n_sites, values=values)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Disorder covariance C_{jl} with its generating parameters."""

    entries: np.ndarray
    sigma: float
    kind: str  # "perfect" | "iid" | "exponential"
    xi: float | None = None
    distance_mode: str = "linear"

    @cached_property
    def wrapped(self) -> np.ndarray:
        """Wrapped diagonal sums w_d = sum_j C[j, (j - d) mod N], formed on first use."""
        n = self.entries.shape[0]
        return np.bincount(_ring_offsets(n).ravel(), weights=self.entries.ravel(), minlength=n)


def perfect_covariance(sigma: float, n_sites: int) -> CovarianceMatrix:
    """All-ones covariance sigma^2: one shared Gaussian shift on every site."""
    _check_sigma(sigma)
    return CovarianceMatrix(
        entries=sigma * sigma * np.ones((n_sites, n_sites)), sigma=sigma, kind="perfect"
    )


def iid_covariance(sigma: float, n_sites: int) -> CovarianceMatrix:
    """Diagonal covariance sigma^2 I: independent noise per site."""
    _check_sigma(sigma)
    return CovarianceMatrix(entries=sigma * sigma * np.eye(n_sites), sigma=sigma, kind="iid")


def exponential_covariance(
    sigma: float, xi: float, n_sites: int, distance_mode: str = "linear"
) -> CovarianceMatrix:
    """Exponentially correlated covariance sigma^2 exp(-|j - l| / xi).

    distance_mode "linear" uses the literal index separation |j - l|;
    "ring" uses min(|j - l|, N - |j - l|), which respects the periodic
    geometry of the chain.
    """
    _check_sigma(sigma)
    if xi <= 0.0 or not math.isfinite(xi):
        raise ValueError("correlation length must be positive and finite")
    if distance_mode not in ("linear", "ring"):
        raise ValueError(f"unknown distance_mode {distance_mode!r}")
    idx = np.arange(n_sites)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    if distance_mode == "ring":
        dist = np.minimum(dist, n_sites - dist)
    return CovarianceMatrix(
        entries=sigma * sigma * np.exp(-dist / xi),
        sigma=sigma,
        kind="exponential",
        xi=xi,
        distance_mode=distance_mode,
    )


def _check_sigma(sigma: float):
    if sigma < 0.0 or not math.isfinite(sigma):
        raise ValueError("sigma must be non-negative and finite")


@dataclass(frozen=True)
class SecondVariationReport:
    """Mean second-order utility shift for one covariance."""

    g_bar: float
    n_sites: int
    kind: str
    sigma: float
    value: float  # E[u] - chi(gbar) to second order
    rescaled: float  # value / (N sigma^2)


def second_variation(g_bar: float, n_sites: int, covariance: CovarianceMatrix) -> SecondVariationReport:
    """Contract the Hessian kernel at (N, g_bar) with a disorder covariance.

    One call of ``hessian_kernel`` and one ``HessianKernel.contract``; a
    sweep over many covariances at one (N, g_bar) should keep the kernel.
    """
    return hessian_kernel(g_bar, n_sites).contract(covariance)


# ---------------------------------------------------------------------------
# Thermodynamic limit of the Laplacian


def laplacian_density_limit(g: float) -> float:
    """N -> infinity limit of laplacian_u(g, N) / N, as a double integral.

    (1/(2 pi^2)) integral over (0, pi)^2 of a_plus + a_minus, by the tensor
    product of ``free_fermion.wavenumber_integral``'s rule with itself.  The
    integrand peaks at the origin with scale |1 - g|, which is the floor of
    the panel grading.  The gate is 1e-6 absolute on the integral before the
    1/(2 pi^2).  Node rows are summed in blocks of 64, as in
    ``laplacian_u``.  Tested against a finer rule for |1 - g| down to 1e-6
    on either side of 1.
    """
    if g <= 0.0 or g == 1.0 or not math.isfinite(g):
        raise ValueError("coupling must be positive, finite and away from 1")

    def rule(k, w):
        total = 0.0
        for rows in np.array_split(np.arange(k.size), -(-k.size // 64)):
            a_plus, a_minus = _pair_weights(k[rows, None], k, g)
            total += w[rows] @ (a_plus + a_minus) @ w
        return total

    value, _ = wavenumber_integral(rule, abs(1.0 - g), 1e-6, "Laplacian density")
    return value / (2.0 * np.pi**2)


def laplacian_crossover_thermodynamic(bracket=(0.95, 0.998)) -> float:
    """Coupling where the thermodynamic Laplacian density changes sign.

    Below the crossover independent site noise lowers the expected utility,
    above it raises it.  Brent's method to 1e-12 in g; the default bracket
    straddles the known sign change just below the critical point.
    """
    return bracketed_root(laplacian_density_limit, bracket, "Laplacian crossover")
