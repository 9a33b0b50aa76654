"""Lock modes, the compatibility matrix and the conversion matrix.

This module reproduces Tables 1 and 2 of the paper (Section 2):

* Table 1 — the *compatibility matrix* ``Comp``: two lock requests for the
  same resource by two different transactions are *compatible* if they can
  be granted concurrently.
* Table 2 — the *conversion matrix* ``Conv``: when a holder re-requests the
  same resource, the granted mode and the newly requested mode are combined
  into the mode the transaction eventually wants to hold.

The six modes are the classic multiple-granularity-locking modes of
Gray [11]: ``NL`` (no lock), ``IS`` (intention shared), ``IX`` (intention
exclusive), ``S`` (shared), ``SIX`` (shared + intention exclusive) and
``X`` (exclusive).

One transcription note: the scanned Table 1 in the source text reads
``Comp(S, S) = false``, but the paper's own Example 5.1 places two
transactions simultaneously in the holder list of a resource with granted
mode ``S`` each, which requires ``Comp(S, S) = true`` — the value the
standard Gray matrix assigns.  We therefore use the standard matrix; every
other entry agrees with the scanned table.

The paper's *total mode* (Section 2) and the conventional *group mode*
(Gray [11]) are both provided; the total mode folds blocked conversion
modes into the summary so that a single comparison decides grantability of
new queue requests (see :func:`total_mode` and experiment X5 in DESIGN.md).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Tuple


class LockMode(enum.IntEnum):
    """The five lock modes of the paper plus ``NL`` (no lock).

    The integer values order the modes by *exclusiveness* along the
    conversion lattice's longest chain (NL < IS < IX/S < SIX < X); they are
    an implementation convenience only — grantability decisions always go
    through :func:`compatible` / :func:`convert`, never through ``<``.
    """

    NL = 0
    IS = 1
    IX = 2
    S = 3
    SIX = 4
    X = 5

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @property
    def is_intention(self) -> bool:
        """True for the intention modes ``IS``, ``IX`` and ``SIX``."""
        return self in (LockMode.IS, LockMode.IX, LockMode.SIX)

    @property
    def grants_read(self) -> bool:
        """True if the mode by itself permits reading the resource."""
        return self in (LockMode.S, LockMode.SIX, LockMode.X)

    @property
    def grants_write(self) -> bool:
        """True if the mode by itself permits writing the resource."""
        return self is LockMode.X


#: All modes, in the row/column order of Tables 1 and 2.
ALL_MODES: Tuple[LockMode, ...] = (
    LockMode.NL,
    LockMode.IS,
    LockMode.IX,
    LockMode.SIX,
    LockMode.S,
    LockMode.X,
)

#: Modes a transaction can actually request (``NL`` is a non-request).
REQUESTABLE_MODES: Tuple[LockMode, ...] = (
    LockMode.IS,
    LockMode.IX,
    LockMode.S,
    LockMode.SIX,
    LockMode.X,
)

#: The modes a blocked conversion can be waiting for.  Theorem 3.1's proof
#: relies on a blocked mode being one of these (an ``IS`` request can never
#: block because ``IS`` conflicts only with ``X``, and a granted ``X``
#: holder forces the sole holder case).
BLOCKABLE_MODES: Tuple[LockMode, ...] = (
    LockMode.IX,
    LockMode.S,
    LockMode.SIX,
    LockMode.X,
)


def _build_compatibility() -> dict:
    """Build Table 1 as a dict keyed by ``(held, requested)``.

    ``True`` means the two modes can be granted concurrently.
    """
    t, f = True, False
    rows = {
        #                NL IS IX SIX  S  X
        LockMode.NL: (t, t, t, t, t, t),
        LockMode.IS: (t, t, t, t, t, f),
        LockMode.IX: (t, t, t, f, f, f),
        LockMode.SIX: (t, t, f, f, f, f),
        LockMode.S: (t, t, f, f, t, f),
        LockMode.X: (t, f, f, f, f, f),
    }
    table = {}
    columns = (
        LockMode.NL,
        LockMode.IS,
        LockMode.IX,
        LockMode.SIX,
        LockMode.S,
        LockMode.X,
    )
    for row_mode, values in rows.items():
        for col_mode, value in zip(columns, values):
            table[(row_mode, col_mode)] = value
    return table


def _build_conversion() -> dict:
    """Build Table 2 as a dict keyed by ``(granted, requested)``.

    ``Conv(granted, requested)`` is the mode the transaction eventually
    wants to hold; it is the least upper bound in the lock-mode lattice
    (``S`` and ``IX`` are incomparable, their join is ``SIX``).
    """
    NL, IS, IX, SIX, S, X = (
        LockMode.NL,
        LockMode.IS,
        LockMode.IX,
        LockMode.SIX,
        LockMode.S,
        LockMode.X,
    )
    rows = {
        #      NL   IS   IX   SIX  S    X
        NL: (NL, IS, IX, SIX, S, X),
        IS: (IS, IS, IX, SIX, S, X),
        IX: (IX, IX, IX, SIX, SIX, X),
        SIX: (SIX, SIX, SIX, SIX, SIX, X),
        S: (S, S, SIX, SIX, S, X),
        X: (X, X, X, X, X, X),
    }
    table = {}
    columns = (NL, IS, IX, SIX, S, X)
    for row_mode, values in rows.items():
        for col_mode, value in zip(columns, values):
            table[(row_mode, col_mode)] = value
    return table


#: Table 1 of the paper.  ``COMPATIBILITY[(a, b)]`` is ``Comp(a, b)``.
COMPATIBILITY = _build_compatibility()

#: Table 2 of the paper.  ``CONVERSION[(a, b)]`` is ``Conv(a, b)``.
CONVERSION = _build_conversion()


# ---------------------------------------------------------------------------
# Bitmask fast lanes.
#
# The dict matrices above are the oracle — the transcription of Tables 1
# and 2 that tests and ``ModeSystem.validate`` reason about.  Everything
# below is *derived* from them at import time so the hot path (grant
# checks, conversion checks, total-mode folds over whole holder lists)
# touches only tuple indexing and integer masks:
#
# * ``COMPAT_ROWS[a][b]`` / ``CONV_ROWS[a][b]`` — the same tables as flat
#   tuple-of-tuples indexed by the modes' integer values (an ``IntEnum``
#   indexes a tuple directly, skipping the tuple-of-two-keys hash of the
#   dict lookup);
# * ``mode_bit(m)`` / ``mask_of(modes)`` — a mode *set* as a 6-bit
#   integer;
# * ``COMPAT_MASKS[m]`` — the modes compatible with ``m`` as a bit set;
#   ``CONFLICT_MASKS[m]`` is its complement, so "is ``m`` compatible
#   with every mode in this group?" is ``CONFLICT_MASKS[m] & group == 0``
#   — one AND instead of a scan;
# * ``SUP_OF_MASK[mask]`` — the lattice join of every mode in ``mask``.
#   Because ``Conv`` is a join (commutative, associative, idempotent;
#   see :mod:`repro.core.modesystem`), the fold over a holder list equals
#   the join of the *set* of modes present, so a 64-entry table replaces
#   the per-entry ``Conv`` fold.
# ---------------------------------------------------------------------------

#: Number of modes (bit width of the mode-set masks).
MODE_COUNT = len(ALL_MODES)

#: Modes indexed by their integer value (``_MODES_BY_VALUE[int(m)] is m``).
_MODES_BY_VALUE: Tuple[LockMode, ...] = tuple(sorted(ALL_MODES))

#: ``MODE_NAMES[mode]`` — the mode's name without the enum descriptor.
MODE_NAMES: Tuple[str, ...] = tuple(mode.name for mode in _MODES_BY_VALUE)

#: ``MODES_BY_NAME[name]`` — the mode so named (:func:`parse_mode` reads it).
MODES_BY_NAME: Dict[str, LockMode] = dict(zip(MODE_NAMES, _MODES_BY_VALUE))

#: ``COMPAT_ROWS[held][requested]`` — Table 1, tuple-indexed by value.
COMPAT_ROWS: Tuple[Tuple[bool, ...], ...] = tuple(
    tuple(COMPATIBILITY[(a, b)] for b in _MODES_BY_VALUE)
    for a in _MODES_BY_VALUE
)

#: ``CONV_ROWS[granted][requested]`` — Table 2, tuple-indexed by value.
CONV_ROWS: Tuple[Tuple[LockMode, ...], ...] = tuple(
    tuple(CONVERSION[(a, b)] for b in _MODES_BY_VALUE)
    for a in _MODES_BY_VALUE
)

#: Every mode bit set — the universe of the mode-set masks.
FULL_MASK = (1 << MODE_COUNT) - 1

#: ``COMPAT_MASKS[m]`` — bit ``b`` is set iff ``Comp(m, b)``.
COMPAT_MASKS: Tuple[int, ...] = tuple(
    sum(1 << int(b) for b in _MODES_BY_VALUE if COMPATIBILITY[(a, b)])
    for a in _MODES_BY_VALUE
)

#: ``CONFLICT_MASKS[m]`` — bit ``b`` is set iff ``m`` conflicts with ``b``.
CONFLICT_MASKS: Tuple[int, ...] = tuple(
    FULL_MASK & ~mask for mask in COMPAT_MASKS
)


def _build_sup_of_mask() -> Tuple[LockMode, ...]:
    table = []
    for mask in range(1 << MODE_COUNT):
        result = LockMode.NL
        for mode in _MODES_BY_VALUE:
            if mask >> int(mode) & 1:
                result = CONVERSION[(result, mode)]
        table.append(result)
    return tuple(table)


#: ``SUP_OF_MASK[mask]`` — the join (``Conv`` fold) of the modes in
#: ``mask``; ``SUP_OF_MASK[0]`` is ``NL``.
SUP_OF_MASK: Tuple[LockMode, ...] = _build_sup_of_mask()


def mode_bit(mode: LockMode) -> int:
    """The single-bit mask of ``mode`` (bit position = integer value)."""
    return 1 << mode


def mask_of(modes: Iterable[LockMode]) -> int:
    """The mode-set mask with the bit of every mode in ``modes`` set."""
    mask = 0
    for mode in modes:
        mask |= 1 << mode
    return mask


def modes_in_mask(mask: int) -> Tuple[LockMode, ...]:
    """The modes whose bits are set in ``mask``, in value order."""
    return tuple(
        mode for mode in _MODES_BY_VALUE if mask >> int(mode) & 1
    )


def mask_compatible(mask: int, mode: LockMode) -> bool:
    """True iff ``mode`` is compatible with *every* mode in ``mask``
    (one AND against the precomputed conflict mask)."""
    return not (CONFLICT_MASKS[mode] & mask)


def compatible(held: LockMode, requested: LockMode) -> bool:
    """``Comp(held, requested)`` — Table 1.

    Example from the paper: ``Comp(S, IS)`` is true but ``Comp(IX, SIX)``
    is false.
    """
    return COMPAT_ROWS[held][requested]


def convert(granted: LockMode, requested: LockMode) -> LockMode:
    """``Conv(granted, requested)`` — Table 2.

    Example from the paper: a transaction holding ``IX`` that re-requests
    ``S`` eventually wants ``SIX`` (``Conv(IX, S) == SIX``).
    """
    return CONV_ROWS[granted][requested]


def supremum(modes: Iterable[LockMode]) -> LockMode:
    """Fold :func:`convert` over ``modes`` (the lattice join of all of them).

    Returns ``NL`` for an empty iterable.
    """
    result = LockMode.NL
    for mode in modes:
        result = convert(result, mode)
    return result


def total_mode(entries: Iterable[Tuple[LockMode, LockMode]]) -> LockMode:
    """The paper's *total mode* of a holder list (Section 2).

    ``entries`` yields ``(granted_mode, blocked_mode)`` pairs, one per
    holder, in holder-list order.  The total mode is defined as::

        Conv(... Conv(Conv(gm1, bm1), gm2), bm2) ..., gmn), bmn)

    i.e. the join of every granted *and* blocked mode.  A new request is
    grantable against the resource exactly when it is compatible with the
    total mode, which makes the grantability check O(1) instead of a scan
    of the holder list (experiment X5 compares this with the group mode).
    """
    result = LockMode.NL
    for granted, blocked in entries:
        result = convert(convert(result, granted), blocked)
    return result


def group_mode(granted_modes: Iterable[LockMode]) -> LockMode:
    """The conventional *group mode* of Gray [11]: join of granted modes only.

    Unlike :func:`total_mode` it ignores blocked conversion modes, so a
    request judged compatible with the group mode may still have to wait
    behind a blocked upgrader; schedulers based on it must rescan the
    holder list.  Provided for the X5 ablation.
    """
    return supremum(granted_modes)


def parse_mode(text: str) -> LockMode:
    """Parse a mode name such as ``"IX"`` (case-insensitive) to a mode.

    Raises ``ValueError`` for unknown names.
    """
    try:
        return MODES_BY_NAME[text.strip().upper()]
    except KeyError:
        raise ValueError("unknown lock mode: {!r}".format(text)) from None


def stronger_or_equal(a: LockMode, b: LockMode) -> bool:
    """True if mode ``a`` covers mode ``b`` in the lattice.

    ``a`` covers ``b`` when converting ``a`` by ``b`` changes nothing,
    i.e. a holder of ``a`` already possesses every privilege of ``b``.
    """
    return convert(a, b) is a


#: Minimal intention mode required on an ancestor before locking a
#: descendant in the given mode (multiple granularity locking, Section 2's
#: "upward compatible with the MGL protocol").  Reads need ``IS``; writes
#: need ``IX``.
REQUIRED_PARENT_MODE = {
    LockMode.IS: LockMode.IS,
    LockMode.S: LockMode.IS,
    LockMode.IX: LockMode.IX,
    LockMode.SIX: LockMode.IX,
    LockMode.X: LockMode.IX,
}


def required_parent_mode(child_mode: LockMode) -> LockMode:
    """The weakest mode a transaction must hold on the parent resource
    before requesting ``child_mode`` on a child (MGL rule).

    Raises ``ValueError`` for ``NL`` (no lock is not requestable).
    """
    try:
        return REQUIRED_PARENT_MODE[child_mode]
    except KeyError:
        raise ValueError(
            "no parent mode defined for {!r}".format(child_mode)
        ) from None
