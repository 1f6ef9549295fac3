"""Exception hierarchy shared by all modules.

Every contract violation raises a named subclass of PolyArenaError so the
CLI can report the error name and exit with a uniform status code.
"""


class PolyArenaError(Exception):
    pass


# ring
class NotPrime(PolyArenaError):
    pass


class ZeroInverse(PolyArenaError):
    pass


class NoSuchRoot(PolyArenaError):
    pass


# arena / views
class LengthMismatch(PolyArenaError):
    pass


class PermissionDenied(PolyArenaError):
    pass


class OutOfRange(PolyArenaError):
    pass


class BadRange(PolyArenaError):
    pass


class PaddingWrite(PolyArenaError):
    pass


class UnderflowExit(PolyArenaError):
    pass


# dense reference ops
class BadLength(PolyArenaError):
    pass


class BadOrder(PolyArenaError):
    pass


class NonUnitConstant(PolyArenaError):
    pass


class NonUnitLeading(PolyArenaError):
    pass


class NonUnit(PolyArenaError):
    pass


class DuplicatePoint(PolyArenaError):
    pass


# ro/rw algorithms
class PreconditionTopNonzero(PolyArenaError):
    pass


class PreconditionLowNonzero(PolyArenaError):
    pass


class ScratchTooSmall(PolyArenaError):
    pass


class BadScratch(PolyArenaError):
    pass


class SizeContract(PolyArenaError):
    pass


class ZeroPointWithShift(PolyArenaError):
    pass


# rw/rw algorithms
class BadParams(PolyArenaError):
    pass


def check_sign(sign):
    """The accumulating entries add (sign 1) or subtract (sign -1)."""
    if sign not in (1, -1):
        raise BadParams(f"sign must be 1 or -1, not {sign!r}")


class LambdaZero(PolyArenaError):
    pass


class BadSlice(PolyArenaError):
    pass


class NonMonicModulus(PolyArenaError):
    pass


# bilinear programs
class ZeroRow(PolyArenaError):
    pass


class DimMismatch(PolyArenaError):
    pass


class OverlapUnsupported(PolyArenaError):
    pass


class RegionMismatch(PolyArenaError):
    pass


class NotPowerOfTwo(PolyArenaError):
    pass
