"""Static classification behind the executor's dispatch counters.

The executor folds each launch's counters from the dispatch units it
visited, keyed by two classifications:

* :data:`OPCLASS_KEY` — ``"instr.<class>"`` where ``<class>`` is an
  opcode's primary semantic class (memory, control, float, ...);
* ``sassi_key`` — for injected (``tag == "sassi"``) instructions, which
  overhead bucket the instruction belongs to (resolved once per kernel
  in the executor's decode cache): ``spill`` / ``fill`` (the
  ABI save/restore traffic), ``save_restore`` (frame management,
  predicate/carry bookkeeping, the handler call itself) or
  ``param_marshal`` (building the SASSI parameter objects).  These are
  the dynamic inputs to the Figure-10-style overhead attribution in
  :mod:`repro.telemetry.attribution`.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instruction import MemRef
from repro.isa.opcodes import OpClass, Opcode, OPCODE_CLASSES

#: (flag, name) precedence for the primary class of an opcode.
_PRIMARY = (
    (OpClass.ATOMIC, "atomic"),
    (OpClass.MEMORY, "memory"),
    (OpClass.CALL, "call"),
    (OpClass.CONTROL, "control"),
    (OpClass.SYNC, "sync"),
    (OpClass.WARP, "warp"),
    (OpClass.CONVERT, "convert"),
    (OpClass.FLOAT, "float"),
    (OpClass.INTEGER, "integer"),
    (OpClass.PREDICATE_OUT, "predicate"),
    (OpClass.MOVE, "move"),
    (OpClass.NOP_LIKE, "nop"),
)


def primary_class_name(opcode: Opcode) -> str:
    """The single class bucket an opcode is counted under."""
    flags = OPCODE_CLASSES[opcode]
    for flag, name in _PRIMARY:
        if flags & flag:
            return name
    return "other"


#: Opcode -> ``"instr.<class>"`` (precomputed for the decode cache).
OPCLASS_KEY = {opcode: f"instr.{primary_class_name(opcode)}"
               for opcode in Opcode}


def sassi_key(instr) -> Optional[str]:
    """The overhead bucket of one injected instruction (None when the
    instruction is not SASSI-injected).

    Classification rests on the ABI layout of :mod:`repro.sassi.abi`:
    spills/restores target the ``SASSIBeforeParams`` spill slots, every
    injected ``LDL`` is a restore/write-back fill, and frame management
    touches R1 — everything else the injector emits is parameter
    marshaling.
    """
    if instr.tag != "sassi":
        return None
    from repro.sassi import params as P

    opcode = instr.opcode
    if opcode is Opcode.JCAL:
        return "sassi.save_restore"        # the call is ABI bookkeeping
    if opcode is Opcode.LDL:
        return "sassi.fill"
    if opcode is Opcode.STL:
        ref = next((s for s in instr.srcs if isinstance(s, MemRef)), None)
        if ref is not None and _is_spill_slot(ref.offset, P):
            return "sassi.spill"
        return "sassi.param_marshal"
    if opcode in (Opcode.P2R, Opcode.R2P):
        return "sassi.save_restore"        # predicate-file save/restore
    if opcode is Opcode.IADD:
        dsts = instr.dsts
        if dsts and getattr(dsts[0], "index", None) == 1:
            return "sassi.save_restore"    # frame alloc/release on R1
        if "X" in instr.mods or "CC" in instr.mods:
            # carry-flag read (IADD.X RZ,RZ) / restore (IADD.CC -1)...
            # unless it is the 64-bit effective-address computation,
            # which reads a base register pair for SASSIMemoryParams.
            srcs = instr.srcs
            if all(getattr(s, "is_zero", False) or not hasattr(s, "index")
                   for s in srcs):
                return "sassi.save_restore"
            if dsts and getattr(dsts[0], "is_zero", False):
                return "sassi.save_restore"
    return "sassi.param_marshal"


def _is_spill_slot(offset: int, P) -> bool:
    if offset in (P.BP_PR_SPILL, P.BP_CC_SPILL):
        return True
    return P.BP_GPR_SPILL <= offset \
        < P.BP_GPR_SPILL + 4 * P.NUM_SPILL_SLOTS


#: The save/restore bucket is the union of these counter keys.
SAVE_RESTORE_KEYS = ("sassi.spill", "sassi.fill", "sassi.save_restore")
