"""Exception hierarchy for the oamix library.

Every library-raised error derives from OamixError so callers can catch one
base class. Data and schema problems are distinct from numerical failures;
the CLI maps the former to exit code 3 and the latter to exit code 4.
"""


class OamixError(Exception):
    """Base class for all oamix errors."""


class SpecError(OamixError):
    """A ModelSpec is internally inconsistent or disallowed for its family."""


class KindMismatch(OamixError):
    """Design kind (proportion vs amount) does not match the model family."""


class InvalidPermutation(OamixError):
    """A permutation is incomplete or contains duplicates."""


class SupportMismatch(OamixError):
    """A permutation or PWO vector disagrees with a run's nonzero support."""


class InconsistentPWO(OamixError):
    """A PWO vector encodes no order: an entry outside {-1, 0, +1}, or a
    cyclic (intransitive) precedence pattern."""


class EmptySupport(OamixError):
    """All component values are zero; there is nothing to order."""


class AlreadyExpanded(OamixError):
    """Expansion was asked for a design that already carries orderings."""


class InvalidAmount(OamixError):
    """A total-amount argument is not a positive real."""


class InsufficientDF(OamixError):
    """No residual degrees of freedom: n <= p."""


class NothingToCheck(OamixError):
    """Blocking check requested on a design with fewer than 2 blocks."""


class SchemaError(OamixError):
    """A CSV header or column-name set does not match the expected schema."""


class InvalidDesign(SchemaError):
    """A design breaks structural rules; violations lists each one (see
    core.Violation), and the message shows the first eight."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(
            f"run {v.run_index + 1 if v.run_index is not None else '-'}: "
            f"{v.rule} ({v.message})" for v in self.violations[:8])
        super().__init__(f"design fails validation: {detail}")


class EmptyDesign(OamixError):
    """A design file contains no data rows."""


class Unsupported(OamixError):
    """The request falls outside the supported parameter range."""


class SingularMatrix(OamixError):
    """A matrix required to be invertible is singular to working precision.

    Carries the indices of the columns that depend on the columns before
    them, and optionally the corresponding column names.
    """

    def __init__(self, message: str, offending: tuple[int, ...] = (),
                 names: tuple[str, ...] = ()):
        super().__init__(message)
        self.offending = tuple(offending)
        self.names = tuple(names)

    def __str__(self) -> str:
        base = super().__str__()
        if self.names:
            return f"{base} (columns: {', '.join(self.names)})"
        if self.offending:
            cols = ", ".join(str(i) for i in self.offending)
            return f"{base} (column indices: {cols})"
        return base
