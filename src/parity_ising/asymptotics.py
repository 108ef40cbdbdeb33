"""Critical-point and thermodynamic-limit scaling of the utility derivatives.

At the critical coupling g = 1 the derivatives of the clean utility are
controlled by the trigonometric sums

    S1 = sum_k 1 / sin(k/2),   S2 = sum_k 1 / sin^2(k/2)

over the positive antiperiodic wavenumbers, with

    chi''(1) = -S2/4 + 3 S1/4 - N/4 ~ -N^2/8,

so the rescaled perfectly-correlated second variation chi''/(2N) grows like
-N/16: weak uniform disorder at criticality is catastrophically risk
averse.  Away from criticality the N -> infinity derivatives have closed
forms in complete elliptic integrals of parameter m = 4g/(1+g)^2, computed
by the arithmetic-geometric mean.
"""

import math
from dataclasses import dataclass


EULER_GAMMA = 0.57721566490153286061


def _half_angle_sines(n_sites: int):
    from .free_fermion import _check_length

    _check_length(n_sites)
    # sin(k/2) for k = (2m+1) pi / N
    return [math.sin((2 * m + 1) * math.pi / (2 * n_sites)) for m in range(n_sites // 2)]


def s1_exact(n_sites: int) -> float:
    """S1 = sum_{k>0} 1/sin(k/2)."""
    return math.fsum(1.0 / s for s in _half_angle_sines(n_sites))


def s1_asymptotic(n_sites: int) -> float:
    """Leading large-N form (N/pi)(log N + gamma + log(8/pi))."""
    n = float(n_sites)
    return (n / math.pi) * (math.log(n) + EULER_GAMMA + math.log(8.0 / math.pi))


def s2_exact(n_sites: int) -> float:
    """S2 = sum_{k>0} 1/sin^2(k/2); exactly N^2/2 for even N."""
    return math.fsum(1.0 / (s * s) for s in _half_angle_sines(n_sites))


def s2_asymptotic(n_sites: int) -> float:
    """Large-N form N^2/2 (exact for this wavenumber set)."""
    return 0.5 * float(n_sites) ** 2


@dataclass(frozen=True)
class CriticalScalingReport:
    """Exact and asymptotic critical-point scaling data at one chain length."""

    n_sites: int
    s1_exact: float
    s1_asymptotic: float
    s2_exact: float
    s2_asymptotic: float
    chi2_critical_exact: float
    chi2_critical_asymptotic: float
    rescaled_sv_critical: float  # chi''(1) / (2N), the perfect-kind second variation
    rescaled_sv_asymptotic: float  # -N/16


def critical_scaling(n_sites: int) -> CriticalScalingReport:
    """Assemble the critical-point scaling report for one chain length."""
    s1 = s1_exact(n_sites)
    s2 = s2_exact(n_sites)
    chi2 = -0.25 * s2 + 0.75 * s1 - 0.25 * n_sites
    return CriticalScalingReport(
        n_sites=n_sites,
        s1_exact=s1,
        s1_asymptotic=s1_asymptotic(n_sites),
        s2_exact=s2,
        s2_asymptotic=s2_asymptotic(n_sites),
        chi2_critical_exact=chi2,
        chi2_critical_asymptotic=-(n_sites**2) / 8.0,
        rescaled_sv_critical=chi2 / (2.0 * n_sites),
        rescaled_sv_asymptotic=-n_sites / 16.0,
    )


def elliptic_km_em(m: float) -> tuple[float, float]:
    """Complete elliptic integrals K(m) and E(m), parameter convention.

    By the arithmetic-geometric mean (DLMF 19.8.1-19.8.2): from a_0 = 1,
    b_0 = sqrt(1 - m), c_0 = sqrt(m), K = pi / (2 M) with M the common
    limit of a_n and b_n, and E / K = 1 - sum_n 2^(n-1) c_n^2.  That sum
    nears 1 as m -> 1, so E / K is carried instead as a_n^2 plus an excess,
    which is 0 after the first step (c_0^2 / 2 + c_1^2 = 1 - a_1^2) and
    gains c_n (2 a_n - (2^(n-1) - 1) c_n) at each later one; K and E are
    then within 2 and 3 ulp of their values up to m = 1 - 1e-12.  c_n falls
    quadratically, so the loop stops at c <= 1e-15 a, the next term being
    below rounding; a much tighter rule would never stop, as c stalls at
    rounding level.  For m in [0, 1) only: K diverges at m = 1, the
    critical coupling.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter m must lie in [0, 1), got {m}")
    b = math.sqrt(1.0 - m)
    a, b, c = 0.5 * (1.0 + b), math.sqrt(b), 0.5 * (1.0 - b)
    weight, excess = 1.0, 0.0
    while c > 1e-15 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        excess += c * (2.0 * a - weight * c)
        weight = 2.0 * weight + 1.0
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (a * a + excess)


def dchi_dg_thermodynamic(g: float) -> float:
    """N -> infinity limit of chi'(g)/N.

    -(1/2 pi) [ 2 K(m) / (g (1+g)) - theta(1-g) pi / g ],  m = 4g/(1+g)^2.
    Always negative; log-divergent at the critical point, so g = 1 is
    rejected.
    """
    m = _elliptic_parameter(g)
    big_k, _ = elliptic_km_em(m)
    val = 2.0 * big_k / (g * (1.0 + g))
    if g < 1.0:
        val -= math.pi / g
    return -val / (2.0 * math.pi)


def d2chi_dg2_thermodynamic(g: float) -> float:
    """N -> infinity limit of chi''(g)/N.

    (1/2 pi) [ E(m)/(g^2 (g-1)) + 3 K(m)/(g^2 (g+1)) - theta(1-g) pi/g^2 ].
    Negative in the ferromagnet, positive in the paramagnet, divergent at
    g = 1 (rejected).
    """
    m = _elliptic_parameter(g)
    big_k, big_e = elliptic_km_em(m)
    g2 = g * g
    val = big_e / (g2 * (g - 1.0)) + 3.0 * big_k / (g2 * (g + 1.0))
    if g < 1.0:
        val -= math.pi / g2
    return val / (2.0 * math.pi)


def _elliptic_parameter(g: float) -> float:
    from .free_fermion import _check_couplings

    _check_couplings(g)
    if g == 1.0:
        raise ValueError("elliptic closed forms diverge at the critical coupling")
    return 4.0 * g / (1.0 + g) ** 2
