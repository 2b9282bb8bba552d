"""Exception hierarchy for the affkl package."""


class AffklError(Exception):
    """Base class for all package errors."""


class AssumptionsFailed(AffklError):
    """Standing assumptions on p fail for the datum (no override given)."""


class MalformedDatum(AffklError):
    """Root/coroot tables violate the Cartan or closure conditions."""


class DimensionMismatch(AffklError):
    """Vector length does not match the lattice rank."""


class UnclassifiableComponent(AffklError):
    """A component's Cartan matrix is not of finite type."""


class ConjDataNotFound(AffklError):
    """No conjugation witness for an affine reflection within the search bound."""


class NotLengthZero(AffklError):
    """Operation requires a length-zero element."""


class NotInWaff(AffklError):
    """Element does not lie in the affine Weyl group."""


class OmegaUnbounded(AffklError):
    """Enumeration over an infinite length-zero subgroup needs a truncation."""


class NotFinitary(AffklError):
    """Generated subgroup is infinite."""


class DatumMismatch(AffklError):
    """Operands live over different root data."""


class RealizationMismatch(AffklError):
    """Operands live over different realizations."""


class NoDelta(AffklError):
    """No degree-2 element pairs to 1 with the given coroot (torsion obstruction)."""


class DegreeOutOfWindow(AffklError):
    """Requested morphism degree exceeds the solver window."""


class SplitOverExtensionNeeded(AffklError):
    """A simple block of the endomorphism algebra does not split over GF(p) or Q.

    affkl computes over GF(p) and Q only: the p-canonical basis depends only
    on p, so End^0(B_w)/rad is the base field and this error signals a fault,
    not a missing feature.  Carries `degree`, the dimension over the base
    field of the center of the central piece that is not split (0 when a
    block with center k did not split, as a division algebra over Q would
    not).
    """

    def __init__(self, degree, message=""):
        self.degree = degree
        super().__init__(message or f"extension of degree {degree} needed to split")


class IdentificationFailure(AffklError):
    """A direct summand could not be matched with a stored indecomposable."""


class UnknownCharacter(AffklError):
    """Character requested for a bimodule that is neither Bott-Samelson nor registered."""


class SupportIncomplete(AffklError):
    """A Hom-dimension sum found nonzero multiplicity outside the given support."""


class NotMinimalRep(AffklError):
    """Element fails the length-additive double-coset membership test."""


class NegativeMultiplicity(AffklError):
    """A signed multiplicity sum came out negative (internal inconsistency)."""


class CacheCorrupt(AffklError):
    """A persisted table entry disagrees with recomputation."""


class SolverError(AffklError):
    """Internal failure of a linear or algebra solver."""
