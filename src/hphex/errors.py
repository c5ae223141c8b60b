"""Exception types shared across the library."""


class HphexError(Exception):
    """Base class for all library errors."""


class ConfigError(HphexError):
    """Bad input file, parameter, or option."""


class OrderError(ConfigError):
    """Polynomial order outside the supported range."""


class MeshError(HphexError):
    """Inconsistent mesh connectivity or illegal mesh state."""


class OrientationError(MeshError):
    """Neighbours disagree on the direction of a shared edge or face:
    only orientation 0 is supported."""


class IrregularityError(MeshError):
    """Mesh is more than 1-irregular (closure was skipped)."""


class GeometryError(HphexError):
    """Degenerate or inverted element geometry."""


class LinAlgError(HphexError):
    """Local linear-algebra failure (non-SPD matrix, singular block)."""


class SolveError(LinAlgError):
    """Global solver failed to converge or is unavailable for the system."""
