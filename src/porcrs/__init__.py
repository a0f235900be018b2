"""Audited distributed storage for append-only data.

Files are spread over n servers with a systematic Cauchy Reed-Solomon
product code (a dispersal code across servers, a column code inside each
server), every stored block carries a homomorphic tag, and a
challenge-response audit spot-checks random rows.  The column code extends
by one column per append, so servers update their own parity blocks and
the client ships only tag deltas.
"""

from .auth import SecretKey, TagContext, keygen, prf, tag_block, tag_delta, verify_block
from .client import (
    AppendOrder,
    ChallengeSet,
    FileMetadata,
    RedistributeResult,
    SchemeParams,
    append,
    challenge,
    needs_redistribute,
    outsource,
    redistribute,
    setup,
    verify,
)
from .crs import CauchySets, DistributionMatrix, build_distribution, canonical_matrix, canonical_sets
from .errors import (
    CapacityError,
    FieldMismatchError,
    FormatError,
    MetaFormatError,
    OrderRejectedError,
    ParameterError,
    PorcrsError,
    UnrecoverableError,
)
from .field import BinaryField, Field, PrimeField, binary_field, field_from_token, prime_field
from .server import ServerState, apply_append, dump_all, prove, read_block, store_share

__all__ = [name for name in dir() if not name.startswith("_")]
