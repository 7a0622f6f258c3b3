"""Tests for CFG construction and SIMT-aware liveness."""

from repro.isa import parse_kernel
from repro.isa.analysis import basic_blocks, compute_liveness, successors
from repro.isa.registers import GPR, Pred


LOOP_KERNEL = parse_kernel("""
.kernel loop
TOP:
        ISETP.GE.S32.AND P0, PT, R0, R4, PT ;
        @P0 BRA `(DONE) ;
        IADD R2, R2, R0 ;
        IADD R0, R0, 1 ;
        BRA `(TOP) ;
DONE:
        MOV R5, R2 ;
        EXIT ;
""")


class TestSuccessors:
    def test_fallthrough(self):
        assert successors(LOOP_KERNEL, 0) == (1,)

    def test_conditional_branch_has_two(self):
        assert set(successors(LOOP_KERNEL, 1)) == {2, 5}

    def test_unconditional_branch_has_one(self):
        assert successors(LOOP_KERNEL, 4) == (0,)

    def test_exit_has_none(self):
        assert successors(LOOP_KERNEL, 6) == ()

    def test_predicated_exit_falls_through(self):
        # guard-false lanes of @P0 EXIT run on, so liveness must follow
        kernel = parse_kernel("""
.kernel k
        @P0 EXIT ;
        STG [R6], R2 ;
        @!P1 RET ;
        EXIT ;
""")
        assert successors(kernel, 0) == (1,)
        assert successors(kernel, 2) == (3,)
        assert GPR(2) in compute_liveness(kernel).live_gprs_at(0)

    def test_brk_resumes_at_pbk_targets(self):
        kernel = parse_kernel("""
.kernel k
        PBK `(OUT) ;
LOOP:
        @P0 BRK ;
        IADD R0, R0, 1 ;
        BRA `(LOOP) ;
OUT:
        EXIT ;
""")
        assert set(successors(kernel, 1)) == {2, 4}

    def test_sync_resumes_at_divergent_fallthroughs(self):
        kernel = parse_kernel("""
.kernel k
        SSY `(M) ;
        @P0 BRA `(T) ;
        BRA `(M) ;
T:
        IADD R0, R0, 1 ;
M:
        SYNC ;
        EXIT ;
""")
        # SYNC may resume at the fall-through of the predicated branch
        assert 2 in successors(kernel, 4)


class TestLiveness:
    def test_loop_carried_registers_live_at_header(self):
        liveness = compute_liveness(LOOP_KERNEL)
        live_in = liveness.live_gprs_at(0)
        assert GPR(0) in live_in          # induction variable
        assert GPR(2) in live_in          # accumulator
        assert GPR(4) in live_in          # bound

    def test_dead_after_last_use(self):
        liveness = compute_liveness(LOOP_KERNEL)
        # after MOV R5, R2, nothing is live (EXIT uses nothing)
        assert liveness.live_gprs_after(5) == ()

    def test_predicate_liveness(self):
        liveness = compute_liveness(LOOP_KERNEL)
        assert Pred(0) in liveness.live_preds_at(1)
        assert Pred(0) not in liveness.live_preds_at(3)

    def test_predicated_def_does_not_kill(self):
        kernel = parse_kernel("""
.kernel k
        @P0 MOV R2, R3 ;
        STG [R6], R2 ;
        EXIT ;
""")
        liveness = compute_liveness(kernel)
        # R2's old value survives in guard-false lanes: live-in at 0
        assert GPR(2) in liveness.live_gprs_at(0)

    def test_unpredicated_def_kills(self):
        kernel = parse_kernel("""
.kernel k
        MOV R2, R3 ;
        STG [R6], R2 ;
        EXIT ;
""")
        liveness = compute_liveness(kernel)
        assert GPR(2) not in liveness.live_gprs_at(0)

    def test_else_path_values_live_through_then_path(self):
        # SIMT: lanes deferred to the else side carry R7 through the
        # then side, so R7 must be live at then-side sites.
        kernel = parse_kernel("""
.kernel k
        SSY `(M) ;
        @P0 BRA `(T) ;
        BRA `(M) ;
T:
        MOV R7, R3 ;
        IADD R2, R2, 1 ;
M:
        SYNC ;
        STG [R4], R7 ;
        EXIT ;
""")
        liveness = compute_liveness(kernel)
        # at the IADD inside the then-path (index 4), R7 was just
        # redefined for taken lanes, but SYNC may resume untaken lanes
        # whose R7 is the original; R7 is live via the SYNC edge.
        assert GPR(7) in liveness.live_gprs_at(4)


class TestBasicBlocks:
    def test_partitioning(self):
        blocks = basic_blocks(LOOP_KERNEL)
        starts = [b.start for b in blocks]
        assert starts == [0, 2, 5]

    def test_successor_wiring(self):
        blocks = basic_blocks(LOOP_KERNEL)
        by_start = {b.start: b for b in blocks}
        assert set(by_start[0].succ) == {1, 2}
        assert by_start[2].succ == (0,)   # loop back edge
        assert by_start[5].succ == ()     # exit block

    def test_empty_kernel(self):
        from repro.isa.program import SassKernel

        assert basic_blocks(SassKernel("empty", ())) == []
