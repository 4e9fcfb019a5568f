"""Exception types shared across the package.

Everything raised deliberately by the library derives from LoophomError, so
callers can catch one base class. Where a standard exception fits (division
by zero, bad lookups) the class also inherits the builtin, so generic
handlers keep working.
"""


class LoophomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCharacteristic(LoophomError, ValueError):
    """A field characteristic is not an int (a bool is not one), or is
    past one machine word."""


class CompositeCharacteristic(InvalidCharacteristic):
    """Field constructor was given a characteristic that is not prime."""


class DivisionByZero(LoophomError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class FieldMismatch(LoophomError, TypeError):
    """Arithmetic attempted between scalars over different fields."""


class ReadOnlyValue(LoophomError, AttributeError):
    """An attribute of a value object was assigned or deleted: every value
    is immutable once its constructor has checked it."""


class InvalidScalar(LoophomError, TypeError):
    """A value given as a field element is not an int (a bool is not
    one), a Fraction or a Scalar: floats and strings are refused, since
    every coefficient is exact."""


class ParityViolation(LoophomError, ValueError):
    """Generator kind is incompatible with its degree parity.

    Away from characteristic 2, graded commutativity forces odd-degree
    generators to square to zero (Exterior) and even-degree generators to
    be strictly commuting (Polynomial, Laurent or Truncated).
    """


class DuplicateName(LoophomError, ValueError):
    """Two generator rows of one algebra have the same name, or
    one generator was given two images, once by name and once by id."""


class InvalidGenerator(LoophomError, ValueError):
    """A generator's name is not a str, its degree, weight or truncation is
    not an int (a bool is not one), its kind or truncation is not allowed,
    or its row has neither 4 nor 5 items."""


class LaurentNonzeroDegree(InvalidGenerator):
    """Laurent (invertible) generators are only supported in degree 0."""


class UnknownGenerator(LoophomError, KeyError):
    """A generator id or name does not exist in the algebra."""


class AlgebraMismatch(LoophomError, TypeError):
    """Operation mixed elements of two different algebras."""


class InvalidHorizon(LoophomError, ValueError):
    """An algebra's completeness horizon is neither None nor an int."""


class InvalidShape(LoophomError, ValueError):
    """A matrix shape is not two nonnegative ints, or an entry's index is
    not a pair of ints (a bool is not one) inside the shape."""


class InfiniteBasis(LoophomError, ValueError):
    """The finiteness certificate fails: some bigraded piece is infinite."""


class InvalidExponent(LoophomError, ValueError):
    """An exponent is negative on a generator that is not laurent, or the
    power of an element is not an int >= 0 (a bool is not an int)."""


class InhomogeneousElement(LoophomError, ValueError):
    """An element that mixes bidegrees was asked for its one bidegree."""


class InhomogeneousImage(LoophomError, ValueError):
    """A differential was given a generator image that mixes bidegrees."""


class WrongBidegree(LoophomError, ValueError):
    """A differential image is homogeneous but sits in the wrong bidegree."""


class NotSquareZero(LoophomError, ValueError):
    """The proposed generator images do not satisfy d(d(g)) = 0."""


class CutoffTooTight(LoophomError, ValueError):
    """Requested degrees reach past the algebra's completeness horizon.

    Homology at top degree D needs a complete basis one degree above D;
    rebuild the page with a larger cutoff.
    """


class InvalidCutoff(LoophomError, ValueError):
    """A cutoff, the top ordinary degree of a computation, is not an int
    (a bool does not count as one)."""


class InvalidField(LoophomError, TypeError):
    """A value given as a field is not a Field."""


class InvalidFieldSpec(LoophomError, ValueError):
    """A field spec string is not 'q', 'rational' or 'f<p>'."""


class NegativeCutoff(InvalidCutoff):
    """A cutoff, the top ordinary degree of a computation, is below 0."""


class InvalidComponent(LoophomError, ValueError):
    """A component, the topological degree of a map, is not an int (a bool
    is not one), or is negative for the holomorphic variant."""


class NotAChainMap(LoophomError, ValueError):
    """A claimed inclusion of differential algebras fails to commute."""


class InvalidDimension(LoophomError, ValueError):
    """The dimension n of the target CP^n is not a positive int (a bool is
    not one)."""


class InvalidVariant(LoophomError, ValueError):
    """A space variant is neither "loop" nor "hol"."""


class InvalidGrading(LoophomError, ValueError):
    """A grading is neither "ordinary" nor "regraded"."""


class InvalidStep(LoophomError, ValueError):
    """A step k between components, the power of iota, is not an int (a
    bool is not one), or is not positive where a check needs it to be."""


class InvalidRank(LoophomError, ValueError):
    """A dimension, rank or Betti number of a spot is not an int (a bool is
    not one) or is negative, or a rank exceeds what it is a rank of."""


class InvalidVerdict(LoophomError, ValueError):
    """A verification verdict is not "Pass", "Fail" or "NoClaim"."""
