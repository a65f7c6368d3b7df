package mb32

import (
	"errors"
	"fmt"
)

// CostModel holds per-class cycle costs. Defaults follow the MicroBlaze
// three-stage pipeline on local memory (LMB): single-cycle ALU, two-cycle
// loads/stores, three-cycle multiplies and taken branches.
type CostModel struct {
	ALU         uint64
	Mul         uint64
	Shift       uint64 // barrel shifter, or base cost when serial
	ShiftPerBit uint64 // extra cycles per shifted bit (serial shifter)
	Load        uint64
	Store       uint64
	BranchTaken uint64
	BranchNot   uint64
}

// MicroBlazeCosts returns the cost model for a MicroBlaze with the
// optional barrel shifter enabled: single-cycle shifts of any distance.
func MicroBlazeCosts() CostModel {
	return CostModel{
		ALU: 1, Mul: 3, Shift: 1, Load: 2, Store: 2,
		BranchTaken: 3, BranchNot: 1,
	}
}

// MicroBlazeBaseCosts returns the 2004-era default core configuration:
// no barrel shifter, so multi-bit shifts decompose into single-bit steps
// — the configuration the paper's 66 MHz soft core most plausibly used.
func MicroBlazeBaseCosts() CostModel {
	c := MicroBlazeCosts()
	c.ShiftPerBit = 1
	return c
}

// Stats counts retired instructions per class.
type Stats struct {
	Retired  uint64
	ByClass  [ClassHalt + 1]uint64
	Branches uint64
	Taken    uint64
}

// CPU is the processor state.
type CPU struct {
	Regs  [32]int32
	PC    int
	Prog  []Instr
	Mem   []byte // byte-addressed local memory, little-endian
	Cost  CostModel
	Cyc   uint64
	Stats Stats
	halt  bool
}

// ErrMaxInstructions aborts runaway programs.
var ErrMaxInstructions = errors.New("mb32: instruction budget exhausted")

// New returns a CPU over the given program with memBytes of local
// memory, using the MicroBlaze cost model.
func New(prog []Instr, memBytes int) *CPU {
	return &CPU{Prog: prog, Mem: make([]byte, memBytes), Cost: MicroBlazeCosts()}
}

// LoadHalfwords copies 16-bit words into memory at the given byte
// address, little-endian — how BRAM-resident list images are made visible
// to the software retrieval routine.
func (c *CPU) LoadHalfwords(addr int, words []uint16) error {
	if addr < 0 || addr+2*len(words) > len(c.Mem) {
		return fmt.Errorf("mb32: image of %d halfwords at %#x exceeds memory", len(words), addr)
	}
	for i, w := range words {
		c.Mem[addr+2*i] = byte(w)
		c.Mem[addr+2*i+1] = byte(w >> 8)
	}
	return nil
}

func (c *CPU) loadU16(addr int32) (uint16, error) {
	if addr < 0 || int(addr)+1 >= len(c.Mem) || addr&1 != 0 {
		return 0, fmt.Errorf("mb32: misaligned or out-of-range halfword load at %#x", addr)
	}
	return uint16(c.Mem[addr]) | uint16(c.Mem[addr+1])<<8, nil
}

func (c *CPU) loadU32(addr int32) (uint32, error) {
	if addr < 0 || int(addr)+3 >= len(c.Mem) || addr&3 != 0 {
		return 0, fmt.Errorf("mb32: misaligned or out-of-range word load at %#x", addr)
	}
	return uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8 |
		uint32(c.Mem[addr+2])<<16 | uint32(c.Mem[addr+3])<<24, nil
}

func (c *CPU) storeU16(addr int32, v uint16) error {
	if addr < 0 || int(addr)+1 >= len(c.Mem) || addr&1 != 0 {
		return fmt.Errorf("mb32: misaligned or out-of-range halfword store at %#x", addr)
	}
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
	return nil
}

func (c *CPU) storeU32(addr int32, v uint32) error {
	if addr < 0 || int(addr)+3 >= len(c.Mem) || addr&3 != 0 {
		return fmt.Errorf("mb32: misaligned or out-of-range word store at %#x", addr)
	}
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
	c.Mem[addr+2] = byte(v >> 16)
	c.Mem[addr+3] = byte(v >> 24)
	return nil
}

// Step retires one instruction.
func (c *CPU) Step() error {
	if c.halt {
		return nil
	}
	if c.PC < 0 || c.PC >= len(c.Prog) {
		return fmt.Errorf("mb32: PC %d outside program (%d instructions)", c.PC, len(c.Prog))
	}
	in := c.Prog[c.PC]
	next := c.PC + 1
	cls := ClassOf(in.Op)
	cost := c.Cost.ALU

	switch cls {
	case ClassMul:
		cost = c.Cost.Mul
	case ClassShift:
		cost = c.Cost.Shift + c.Cost.ShiftPerBit*uint64(c.shiftAmount(in))
	case ClassLoad:
		cost = c.Cost.Load
	case ClassStore:
		cost = c.Cost.Store
	case ClassBranch:
		c.Stats.Branches++
	}

	ra, rb := c.Regs[in.Ra], c.Regs[in.Rb]
	var err error
	switch in.Op {
	case OpNop:
	case OpAdd:
		c.set(in.Rd, ra+rb)
	case OpSub:
		c.set(in.Rd, ra-rb)
	case OpAnd:
		c.set(in.Rd, ra&rb)
	case OpOr:
		c.set(in.Rd, ra|rb)
	case OpXor:
		c.set(in.Rd, ra^rb)
	case OpMul:
		c.set(in.Rd, int32(uint32(ra)*uint32(rb)))
	case OpSll:
		c.set(in.Rd, ra<<(uint32(rb)&31))
	case OpSrl:
		c.set(in.Rd, int32(uint32(ra)>>(uint32(rb)&31)))
	case OpSra:
		c.set(in.Rd, ra>>(uint32(rb)&31))
	case OpAddi:
		c.set(in.Rd, ra+in.Imm)
	case OpAndi:
		c.set(in.Rd, ra&in.Imm)
	case OpOri:
		c.set(in.Rd, ra|in.Imm)
	case OpXori:
		c.set(in.Rd, ra^in.Imm)
	case OpSlli:
		c.set(in.Rd, ra<<(uint32(in.Imm)&31))
	case OpSrli:
		c.set(in.Rd, int32(uint32(ra)>>(uint32(in.Imm)&31)))
	case OpSrai:
		c.set(in.Rd, ra>>(uint32(in.Imm)&31))
	case OpLhu:
		var v uint16
		v, err = c.loadU16(ra + in.Imm)
		c.set(in.Rd, int32(v))
	case OpLw:
		var v uint32
		v, err = c.loadU32(ra + in.Imm)
		c.set(in.Rd, int32(v))
	case OpSh:
		err = c.storeU16(ra+in.Imm, uint16(c.Regs[in.Rd]))
	case OpSw:
		err = c.storeU32(ra+in.Imm, uint32(c.Regs[in.Rd]))
	case OpBeqz:
		next, cost = c.branch(ra == 0, in.Imm, next)
	case OpBnez:
		next, cost = c.branch(ra != 0, in.Imm, next)
	case OpBltz:
		next, cost = c.branch(ra < 0, in.Imm, next)
	case OpBgez:
		next, cost = c.branch(ra >= 0, in.Imm, next)
	case OpBgtz:
		next, cost = c.branch(ra > 0, in.Imm, next)
	case OpBlez:
		next, cost = c.branch(ra <= 0, in.Imm, next)
	case OpBr:
		next, cost = c.branch(true, in.Imm, next)
	case OpCall:
		c.set(15, int32(next))
		next, cost = c.branch(true, in.Imm, next)
	case OpRet:
		next, cost = c.branch(true, c.Regs[15], next)
	case OpHalt:
		c.halt = true
	default:
		return fmt.Errorf("mb32: illegal opcode %v at PC %d", in.Op, c.PC)
	}
	if err != nil {
		return fmt.Errorf("mb32: at PC %d (%v): %w", c.PC, in, err)
	}

	c.PC = next
	c.Cyc += cost
	c.Stats.Retired++
	c.Stats.ByClass[cls]++
	return nil
}

// shiftAmount returns the effective shift distance of a shift
// instruction, for serial-shifter cycle costing.
func (c *CPU) shiftAmount(in Instr) uint32 {
	switch in.Op {
	case OpSlli, OpSrli, OpSrai:
		return uint32(in.Imm) & 31
	default:
		return uint32(c.Regs[in.Rb]) & 31
	}
}

// set writes a register; r0 stays hardwired to zero.
func (c *CPU) set(rd uint8, v int32) {
	if rd != 0 {
		c.Regs[rd] = v
	}
}

// branch resolves a transfer: returns the next PC and the cycle cost.
func (c *CPU) branch(taken bool, target int32, fallthru int) (int, uint64) {
	if taken {
		c.Stats.Taken++
		return int(target), c.Cost.BranchTaken
	}
	return fallthru, c.Cost.BranchNot
}

// Run retires instructions until HALT or the budget is exhausted, and
// returns the cycle count consumed.
func (c *CPU) Run(maxInstructions uint64) (uint64, error) {
	start := c.Cyc
	for n := uint64(0); !c.halt; n++ {
		if n >= maxInstructions {
			return c.Cyc - start, fmt.Errorf("%w (%d)", ErrMaxInstructions, maxInstructions)
		}
		if err := c.Step(); err != nil {
			return c.Cyc - start, err
		}
	}
	return c.Cyc - start, nil
}
