"""Exception hierarchy for the policy engine.

Every error raised by the engine derives from KladiaError. An error's
class alone decides how `kld` exits: an InputError (malformed or
out-of-range input) exits 2, like a ValueError, LookupError, TypeError
or OSError; any other KladiaError is a policy or verification failure
and exits 1.
"""


class KladiaError(Exception):
    """Base class for all engine errors."""


class InputError(KladiaError):
    """The input itself is malformed or out of range."""


# --- ingestion ---------------------------------------------------------------

class MalformedFile(InputError):
    pass


class DuplicateBloc(InputError):
    pass


class NegativeValue(InputError):
    pass


class NoPriorValue(InputError):
    pass


# --- index -------------------------------------------------------------------

class IncompleteBlocSet(InputError):
    pass


class BlocSetMismatch(InputError):
    pass


class NonPositiveLambda(InputError):
    pass


# --- ledger ------------------------------------------------------------------

class AllocationMismatch(KladiaError):
    pass


class InsufficientApprovals(KladiaError):
    pass


class ZeroCap(KladiaError):
    """Release cap is exhausted; a release would move zero tokens."""


class CrossBucketRelock(KladiaError):
    pass


class RelockExceedsRelease(KladiaError):
    pass


class ConservationViolation(KladiaError):
    """Supply conservation check failed; the transition is aborted."""


# --- oracle protocol ---------------------------------------------------------

class UnknownOperator(KladiaError):
    pass


class InconsistentPayload(KladiaError):
    pass


class DuplicateSubmission(KladiaError):
    pass


class SubmissionsClosed(KladiaError):
    pass


class NoSubmissions(KladiaError):
    pass


class WindowClosed(KladiaError):
    pass


class NotExecutable(KladiaError):
    pass


# --- governance --------------------------------------------------------------

class InsufficientStake(KladiaError):
    pass


class InvalidImmutable(KladiaError):
    pass


class OutOfBounds(KladiaError):
    pass


class VotingClosed(KladiaError):
    pass


class ZeroPower(KladiaError):
    pass


class AlreadyFinalized(KladiaError):
    pass


class TimelockActive(KladiaError):
    pass


class NotQueued(KladiaError):
    pass


class ProposalConflict(KladiaError):
    """Another live proposal already touches one of these parameters."""


# --- reporting ---------------------------------------------------------------

class IncompleteCycle(KladiaError):
    pass


# --- simulator / cli ---------------------------------------------------------

class ScenarioInvalid(InputError):
    pass
