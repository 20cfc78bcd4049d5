"""Exception hierarchy shared by all modules."""


class SpecError(ValueError):
    """Malformed or invariant-violating ODE specification."""


class NumericError(RuntimeError):
    """A numerical procedure could not reach its target accuracy."""


class RootFindingError(NumericError):
    """Polynomial root finder failed to converge."""


class ContourError(NumericError):
    """Contour violates the decay condition or pole clearance."""


class ResidueError(NumericError):
    """Residue-solution hypothesis (integer residue) fails at the pole."""
