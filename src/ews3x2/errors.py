"""Exception types shared across the package."""


class Ews3x2Error(Exception):
    """Base class for all package errors."""


class DegenerateDenominator(Ews3x2Error):
    """A ratio is undefined because its denominator vanishes (e.g. g_LT ~ 0)."""


class AsymptoteHit(Ews3x2Error):
    """Boundary curve evaluated at its vertical asymptote S' = -1."""


class DegenerateShock(Ews3x2Error):
    """Shock leaves all relative factor prices unchanged, or a_L0' vanishes."""


class DegenerateShares(Ews3x2Error):
    """A share difference or determinant needed as a denominator vanishes."""


class SingularSystem(Ews3x2Error):
    """The linearized 5x5 system is singular or too ill-conditioned to trust."""


class UnmappedRegion(Ews3x2Error):
    """No Rybczynski sign matrix is tabulated for this region label."""


class NonConvergence(Ews3x2Error):
    """Newton iteration failed to reach the residual target."""


class Specialization(Ews3x2Error):
    """Equilibrium solution has a non-positive output; outside the diversified model."""


class ExhaustedRejection(Ews3x2Error):
    """Rejection sampler hit its draw budget without satisfying the constraints."""


class DegenerateObservation(Ews3x2Error):
    """Observed rates make a point-A/point-B denominator vanish."""


class UnsupportedRanking(Ews3x2Error):
    """No factor relabeling puts the data into the assumed intensity ranking."""


class ZeroP(Ews3x2Error):
    """Relative goods-price change inside the dead band; estimation needs |P| > 0."""
