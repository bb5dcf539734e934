"""Exception hierarchy used across the package.

Everything derives from CointwatchError so callers (and the CLI) can treat
"data/model problem" uniformly while still catching specific conditions.
"""


class CointwatchError(Exception):
    """Base class for all package-specific errors."""


# -- stats ------------------------------------------------------------------

class LengthMismatch(CointwatchError):
    """Paired series have different lengths."""


class TooShort(CointwatchError):
    """A series is too short for the requested operation."""


class DegenerateRegressor(CointwatchError):
    """The regressor has zero variance; the OLS slope is undefined."""


class SingularDesign(CointwatchError):
    """The regression design matrix is rank-deficient or has no residual dof."""


class NonFiniteFit(CointwatchError):
    """A fit of finite prices overflowed float64: its residuals, their mean or
    their spread are not finite."""


# -- coint ------------------------------------------------------------------

class DegeneratePair(CointwatchError):
    """A pair fit produced zero residual spread (perfectly collinear pair)."""


class UniverseTooSmall(CointwatchError):
    """Fewer than two symbols supplied to the pair scan."""


class MisalignedCalendar(CointwatchError):
    """Series in a universe are not aligned to one common calendar window."""


# -- graph ------------------------------------------------------------------

class DuplicateEdge(CointwatchError):
    """Two results describe the same ordered (src, dst) pair."""


class UnknownSymbol(CointwatchError):
    """A tick references a symbol that is not a node of the graph."""


class UnknownNode(CointwatchError):
    """A node id does not exist in the graph."""


class UnknownEdge(CointwatchError):
    """An edge id does not exist in the graph."""


class NonPositivePrice(CointwatchError):
    """A price update is not a finite positive number."""


# -- alert ------------------------------------------------------------------

class ZeroSigma(CointwatchError):
    """A leash check hit a model with zero residual std (pipeline bug)."""


class InsufficientWindow(CointwatchError):
    """The recompute window does not cover an edge's endpoints long enough."""


# -- synth ------------------------------------------------------------------

class ScenarioError(CointwatchError, RuntimeError):
    """A synthetic scenario cannot be built on the given graph or seed."""


# -- pipeline ---------------------------------------------------------------

class ParseError(CointwatchError):
    """A price CSV row could not be parsed; message names the line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyInput(CointwatchError):
    """The input file contains no usable rows."""


class EmptyWindow(CointwatchError):
    """The requested date window contains no calendar dates."""


class SchemaViolation(CointwatchError):
    """A persisted graph violates the JSON schema; message carries the path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
