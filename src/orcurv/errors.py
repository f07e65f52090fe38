"""Exception hierarchy shared across the package.

Everything derives from OrcError so callers (notably the CLI) can map
library failures to exit codes without enumerating individual classes.
"""


class OrcError(Exception):
    """Base class for all orcurv errors."""


# --- graph construction / ingestion -----------------------------------------

class ParseError(OrcError):
    """Input text or JSON does not match the declared format."""


class InvalidWeight(OrcError):
    """Edge weight is missing, non-positive, or not a finite number."""


class DuplicateEdge(OrcError):
    """The same undirected edge appears more than once."""


class SelfLoop(OrcError):
    """An edge connects a vertex to itself."""


class NotAnEdge(OrcError):
    """The requested vertex pair is not an edge of the graph."""


class EmptyNeighborhood(OrcError):
    """One endpoint has no neighbors besides the other endpoint."""


# --- transport solvers -------------------------------------------------------

class InfiniteCost(OrcError):
    """A cost entry is +inf (vertices in different components)."""


class CurvatureOverflow(OrcError):
    """A float curvature 1 - W1/d(x, y) leaves float range."""


class NotATree(OrcError):
    """Tree-only routine invoked on a graph that is not a tree."""


class NotSquare(OrcError):
    """An assignment route, classical or the p = q pipeline, needs p = q.

    Every p != q refusal raises it: the assignment and brute-force cost
    checks, the p = q pipeline and the cost-block localization.
    """


class TooLarge(OrcError):
    """Instance exceeds an exhaustive-enumeration guard."""


class MethodMismatch(OrcError):
    """Requested method is not a classical method (or not a method at all)."""


# --- block-encoding simulator -------------------------------------------------

class SubnormTooSmall(OrcError):
    """Declared subnormalization is below the operator norm."""


class DimMismatch(OrcError):
    """Operands have incompatible dimensions."""


class SpectrumOutOfRange(OrcError):
    """Encoded eigenvalues violate the declared spectral window."""


# --- quantum pipeline ----------------------------------------------------------

class InfiniteDistance(OrcError):
    """Distance operator construction needs finite distances."""


class DegenerateAllZero(OrcError):
    """All distances are zero; no subnormalization exists."""


class IndexOutOfRange(OrcError):
    """Vertex or column index outside the valid range."""


class SizeMismatch(OrcError):
    """An input that must be nonempty is empty (no column encodings, p < 1)."""


class DimensionCap(OrcError):
    """p^p exceeds the configured dimension cap."""


class ZeroOverlap(OrcError):
    """Power-iteration start vector is orthogonal to the target eigenspace."""


class EstimateOutOfRange(OrcError):
    """A shot-noise estimate left the range its quantity must lie in."""


# --- CLI -----------------------------------------------------------------------

class ConfigError(OrcError):
    """Command-line configuration is inconsistent or incomplete."""
