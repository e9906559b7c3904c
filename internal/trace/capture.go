// Capture-once / replay-many trace engine.
//
// A Capture records a benchmark's retired-instruction stream into a compact
// columnar buffer so the trace can be replayed to any number of consumers
// without re-running the interpreter. The paper's methodology is exactly
// this shape: one Mediabench trace feeds every activity and timing study
// (§3), so sweeping N pipeline models should cost one execution plus N
// cheap fan-outs, not N executions.
//
// Layout. Per-instruction state is split into parallel fixed-width columns
// (six uint32 words = 24 B/instruction, enforced at ≤ MaxBytesPerInst by
// SizeBytes and a test). Everything static per instruction word — decoded
// form, source/dest register usage, memory width, sign-extended immediate —
// lives once in a statics table, keyed by the raw word value (not PC, so
// aliasing and self-modifying code are handled). The dynamic columns are:
//
//	slot    statics index, with the branch outcome in the top bit
//	pc      instruction address
//	srcA/B  register operand values (zero when the port is not read)
//	result  written-back value, or the loaded value for load-to-$zero
//	sig     the ten recoder-independent significance quantities, packed
//
// Every remaining cpu.Exec field is derived on replay: Addr = SrcA + simm,
// StoreVal = SrcB, NextPC = next instruction's PC (the interpreter retires
// in program order), destination register/flags from the statics. The
// recoder-dependent IFBytes is deliberately NOT captured: it is a pure
// function of the raw word and the recoder, so replay resolves it through a
// per-statics-slot table built once per (Capture, Recoder) pair — the same
// trace replays under any instruction recoding.
//
// Memory. Consumers may read the program's memory image (the activity
// collectors read cache-line contents at fill time), and only stores mutate
// memory during a run (syscalls write the CPU's output buffer, never
// memory). ReplayBlocksOn therefore takes the rebuilt initial image
// (NewMemory) and applies each captured store just before fanning out its
// row — the same state-then-consume order as the live loop — making replay
// bit-identical to live execution, which the equivalence tests assert.
package trace

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/mem"
)

// MaxBytesPerInst is the capture-format budget: SizeBytes()/Len() must stay
// at or under this, enforced by test. The columnar layout currently uses
// 24 B/instruction plus the (amortized-to-nothing) statics table.
const MaxBytesPerInst = 40

// TakenBit stores the branch outcome in the slot column's top bit; the low
// 31 bits (SlotMask) index the statics table. Exported so BatchConsumers can
// decode the raw slot column.
const (
	TakenBit = 1 << 31
	SlotMask = TakenBit - 1
)

// Packed significance-column field offsets/widths. The ten quantities fit
// in 27 bits: byte counts are 0..4 (3 bits), halfword counts 0..2 (2 bits),
// ALUOps 0..8 (4 bits: mult/div count both operands' blocks), ALUHalfOps
// 0..4 (3 bits).
const (
	sigSrcBytesAShift  = 0  // 3 bits
	sigSrcBytesBShift  = 3  // 3 bits
	sigSrcHalvesAShift = 6  // 2 bits
	sigSrcHalvesBShift = 8  // 2 bits
	sigALUOpsShift     = 10 // 4 bits
	sigALUHalfShift    = 14 // 3 bits
	sigMemBytesShift   = 17 // 3 bits
	sigMemHalvesShift  = 20 // 2 bits
	sigWBBytesShift    = 22 // 3 bits
	sigWBHalvesShift   = 25 // 2 bits
)

// Static is everything about an instruction word that never changes between
// dynamic instances. The statics table is exposed to BatchConsumers as the
// per-block annotation table (Block.Statics), so its fields are exported.
type Static struct {
	Inst     isa.Inst
	Simm     uint32 // sign-extended immediate (effective-address offset)
	Dest     isa.Reg
	MemWidth uint8 // 0 for non-memory instructions
	ReadsA   bool
	ReadsB   bool
	HasDest  bool
	IsStore  bool
}

// staticSize estimates the resident bytes of one statics entry: the struct
// itself plus its raw→slot map entry (key, value, bucket overhead).
const staticSize = 96

// ifbMemoOverhead estimates the per-memo resident bytes beyond the table
// itself: the 64-byte Profile key, its map bucket share, and the slice
// header. Included in SizeBytes so the byte-budgeted trace cache sees the
// memo's real footprint.
const ifbMemoOverhead = 144

// maxIFBMemos bounds how many recoder profiles a capture memoizes fetch
// sizes for. A process normally has one or two live recodings (the static
// default and the suite-profiled one); under recoder churn — sweeps that
// build a fresh Recoder per request — the oldest memo is dropped instead of
// letting the map retain every recoding ever replayed.
const maxIFBMemos = 4

// Replayer is the read side of a recorded trace: everything the serving and
// evaluation layers need to fan a captured benchmark out to consumers. It is
// satisfied by both residency tiers of a capture — the fully decoded
// in-memory Capture and the mmap-backed MappedCapture (stream.go), whose
// replay memory is O(frame) instead of O(trace). The two are byte-identical
// by test, so callers choose a tier purely on memory/latency grounds.
type Replayer interface {
	// Bench returns the benchmark the trace recorded.
	Bench() bench.Benchmark
	// Len returns the number of recorded instructions.
	Len() int
	// SizeBytes estimates the replayer's resident memory (what a
	// byte-budgeted cache should charge for holding it).
	SizeBytes() int
	// NewMemory rebuilds the benchmark's initial memory image, for
	// consumers that read program memory during replay.
	NewMemory() (*mem.Memory, error)
	// ReplayBlocks is batch replay without a memory image.
	ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error
	// ReplayBlocksOn is batch replay over a caller memory image; see
	// Capture.ReplayBlocksOn for the memory-ordering contract.
	ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error
}

// ifbMemo memoizes per-slot compressed fetch sizes per recoder profile:
// IFBytes is static per (raw word, recoding), so one pass over the statics
// table serves every instruction of a replay, and keying by icomp.Profile
// (not recoder pointer) lets distinct Recoder instances with the same
// recoding share one table. order tracks insertion so the memo stays
// bounded (maxIFBMemos, oldest dropped). Both capture tiers embed one.
type ifbMemo struct {
	mu    sync.Mutex
	tabs  map[icomp.Profile][]uint8
	order []icomp.Profile
}

// tableFor returns the per-statics-slot fetch-size table under rc,
// computing it once per recoder profile.
func (mm *ifbMemo) tableFor(rc *icomp.Recoder, statics []Static) []uint8 {
	key := rc.Profile()
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if t, ok := mm.tabs[key]; ok {
		return t
	}
	t := make([]uint8, len(statics))
	for i := range statics {
		t[i] = uint8(rc.FetchBytes(statics[i].Inst.Raw))
	}
	if mm.tabs == nil {
		mm.tabs = make(map[icomp.Profile][]uint8, 1)
	}
	for len(mm.tabs) >= maxIFBMemos {
		delete(mm.tabs, mm.order[0])
		mm.order = mm.order[1:]
	}
	mm.tabs[key] = t
	mm.order = append(mm.order, key)
	return t
}

// sizeBytes estimates the memo's resident footprint for a statics table of
// nStatics entries.
func (mm *ifbMemo) sizeBytes(nStatics int) int {
	mm.mu.Lock()
	n := len(mm.tabs)
	mm.mu.Unlock()
	return n * (nStatics + ifbMemoOverhead)
}

// Capture is one benchmark's recorded trace, recorded by CaptureRun or
// decoded from a capture file; it is immutable and safe for concurrent
// replays.
type Capture struct {
	bench   bench.Benchmark
	statics []Static
	slotOf  map[uint32]uint32 // raw instruction word -> statics index

	slot   []uint32 // statics index | TakenBit
	pc     []uint32
	srcA   []uint32
	srcB   []uint32
	result []uint32
	sig    []uint32

	lastNextPC uint32 // NextPC of the final instruction (no successor row)

	memo ifbMemo // per-recoder-profile fetch-size tables
}

// newCapture returns an empty capture for b, ready to record or decode
// into.
func newCapture(b bench.Benchmark) *Capture {
	return &Capture{
		bench:  b,
		slotOf: make(map[uint32]uint32, 512),
	}
}

// CaptureRun executes b to completion and records its trace. It is the
// recoder-free twin of RunCtx: significance annotation is computed (and
// stored) for every event, but no instruction recoding is consulted — that
// binding happens at replay time.
func CaptureRun(ctx context.Context, b bench.Benchmark) (*Capture, error) {
	c, err := b.NewCPU()
	if err != nil {
		return nil, err
	}
	cp := newCapture(b)
	cp.grow(int(b.MaxInsts))
	var n uint64
	for !c.Done {
		if n&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("trace: capturing %s aborted after %d instructions: %w", b.Name, n, ctx.Err())
			default:
			}
		}
		if n >= b.MaxInsts {
			return nil, fmt.Errorf("trace: %s exceeded %d instructions", b.Name, b.MaxInsts)
		}
		e, err := c.Step()
		if err != nil {
			return nil, fmt.Errorf("trace: capturing %s: %w", b.Name, err)
		}
		ev := Event{Exec: e}
		annotateSig(&ev)
		cp.record(ev)
		n++
	}
	if got := c.Regs[bench.ChecksumReg]; got != b.Checksum {
		return nil, fmt.Errorf("trace: %s checksum %#08x, want %#08x", b.Name, got, b.Checksum)
	}
	cp.finalize()
	return cp, nil
}

// grow pre-sizes the dynamic columns. The hint is capped well below the
// runaway guard MaxInsts (which most benchmarks finish far under) so a
// capture never over-commits memory; append growth covers longer traces and
// finalize trims the slack afterwards.
func (cp *Capture) grow(hint int) {
	if hint <= 0 {
		return
	}
	if hint > 1<<16 {
		hint = 1 << 16
	}
	cp.slot = make([]uint32, 0, hint)
	cp.pc = make([]uint32, 0, hint)
	cp.srcA = make([]uint32, 0, hint)
	cp.srcB = make([]uint32, 0, hint)
	cp.result = make([]uint32, 0, hint)
	cp.sig = make([]uint32, 0, hint)
}

// finalize trims append slack so SizeBytes reflects exactly the recorded
// trace: append growth otherwise leaves up to ~2x slack in the dynamic
// columns.
func (cp *Capture) finalize() {
	trim := func(s []uint32) []uint32 {
		if cap(s) == len(s) {
			return s
		}
		out := make([]uint32, len(s))
		copy(out, s)
		return out
	}
	cp.slot = trim(cp.slot)
	cp.pc = trim(cp.pc)
	cp.srcA = trim(cp.srcA)
	cp.srcB = trim(cp.srcB)
	cp.result = trim(cp.result)
	cp.sig = trim(cp.sig)
}

// staticFor derives the statics-table entry for one decoded instruction.
// record and the capture-file reader (capfile.go) share it, so a capture decoded
// from disk rebuilds exactly the table the original recording held.
func staticFor(in isa.Inst) Static {
	dest, hasDest := in.DestReg()
	st := Static{
		Inst:    in,
		Simm:    uint32(int32(in.Imm)),
		Dest:    dest,
		HasDest: hasDest,
		ReadsA:  in.ReadsRs(),
		ReadsB:  in.ReadsRt(),
		IsStore: in.IsStore(),
	}
	if in.IsMem() {
		st.MemWidth = uint8(in.MemBytes())
	}
	return st
}

func (cp *Capture) record(ev Event) {
	idx, ok := cp.slotOf[ev.Raw]
	if !ok {
		st := staticFor(ev.Inst)
		idx = uint32(len(cp.statics))
		cp.statics = append(cp.statics, st)
		cp.slotOf[ev.Raw] = idx
	}
	sw := idx
	if ev.Taken {
		sw |= TakenBit
	}
	res := ev.Result
	if !ev.HasDest {
		// Load-to-$zero retires with Loaded set but no register write;
		// park the loaded value in the result column so replay can
		// reconstruct it. Every other dest-less instruction leaves 0 here.
		res = ev.Loaded
	}
	cp.slot = append(cp.slot, sw)
	cp.pc = append(cp.pc, ev.PC)
	cp.srcA = append(cp.srcA, ev.SrcA)
	cp.srcB = append(cp.srcB, ev.SrcB)
	cp.result = append(cp.result, res)
	cp.sig = append(cp.sig, packSig(ev))
	cp.lastNextPC = ev.NextPC
}

func packSig(ev Event) uint32 {
	return uint32(ev.SrcBytesA)<<sigSrcBytesAShift |
		uint32(ev.SrcBytesB)<<sigSrcBytesBShift |
		uint32(ev.SrcHalvesA)<<sigSrcHalvesAShift |
		uint32(ev.SrcHalvesB)<<sigSrcHalvesBShift |
		uint32(ev.ALUOps)<<sigALUOpsShift |
		uint32(ev.ALUHalfOps)<<sigALUHalfShift |
		uint32(ev.MemBytes)<<sigMemBytesShift |
		uint32(ev.MemHalves)<<sigMemHalvesShift |
		uint32(ev.WBBytes)<<sigWBBytesShift |
		uint32(ev.WBHalves)<<sigWBHalvesShift
}

// Bench returns the benchmark this capture recorded.
func (cp *Capture) Bench() bench.Benchmark { return cp.bench }

// Len returns the number of recorded instructions.
func (cp *Capture) Len() int { return len(cp.slot) }

// Statics returns the number of distinct instruction words recorded.
func (cp *Capture) Statics() int { return len(cp.statics) }

// SizeBytes estimates the capture's resident memory: the six dynamic
// columns (exact), the statics table and its lookup map (estimated per
// entry), and the per-recoder-profile fetch-size memos replays have built
// (one byte per statics slot each, plus key/bucket overhead). The memos are
// included so the byte-budgeted trace cache in internal/simsvc accounts for
// everything a cached capture actually keeps resident, not just its columns.
func (cp *Capture) SizeBytes() int {
	cols := cap(cp.slot) + cap(cp.pc) + cap(cp.srcA) + cap(cp.srcB) + cap(cp.result) + cap(cp.sig)
	return cols*4 + len(cp.statics)*staticSize + cp.memo.sizeBytes(len(cp.statics))
}

// FunctCounts tallies the dynamic R-format function-code frequencies of the
// recorded trace — the per-benchmark input to the paper's Table 3 recoding,
// for free from the capture (no re-execution, no annotation).
func (cp *Capture) FunctCounts() map[isa.Funct]uint64 {
	perSlot := make([]uint64, len(cp.statics))
	for _, sw := range cp.slot {
		perSlot[sw&SlotMask]++
	}
	counts := make(map[isa.Funct]uint64)
	for i := range cp.statics {
		if st := &cp.statics[i]; st.Inst.Op == isa.OpSpecial && perSlot[i] > 0 {
			counts[st.Inst.Funct] += perSlot[i]
		}
	}
	return counts
}

// NewMemory builds the benchmark's initial memory image, for
// ReplayBlocksOn consumers that read program memory (the activity
// collectors).
func (cp *Capture) NewMemory() (*mem.Memory, error) {
	c, err := cp.bench.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

// ifBytes returns the per-statics-slot compressed fetch size under rc,
// computing it once per (Capture, recoder profile). The memo holds at most
// maxIFBMemos profiles; beyond that the oldest is evicted, so a capture's
// footprint stays bounded no matter how many distinct recodings replay
// against it over its cached lifetime.
func (cp *Capture) ifBytes(rc *icomp.Recoder) []uint8 {
	return cp.memo.tableFor(rc, cp.statics)
}
