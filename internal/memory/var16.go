package memory

import (
	"encoding/binary"
	"fmt"
)

// Var16 is a 16-bit application variable bound to a fixed address in a
// Memory. The target software performs all reads and writes of its
// state through Var16 values, so injected bit-flips are visible to the
// software immediately and software writes overwrite injected
// corruption exactly as on the real target.
//
// The binding holds a pointer to the word inside its region's backing
// store, so the word stays aliased across Restore, RestoreImage and
// Zero (which copy into that store, never replace it). Get and Set are
// small enough to inline: the disarmed path is one sink check and one
// big-endian load or store, which keeps full 40-second, 1 ms-resolution
// experiment runs cheap enough for 27 400-run campaigns. The armed path
// (an AccessSink is set) runs out of line.
type Var16 struct {
	w    *[2]byte // the bound word in its region's backing store
	mem  *Memory  // owner, consulted for the armed access sink
	name string
	addr uint16
}

// Bind creates a Var16 for the big-endian word at addr. Both bytes
// must lie inside one region.
func Bind(m *Memory, name string, addr uint16) (Var16, error) {
	w, err := m.word(addr)
	if err != nil {
		return Var16{}, fmt.Errorf("memory: binding %q: %w", name, err)
	}
	return Var16{w: w, mem: m, name: name, addr: addr}, nil
}

// MustBind is Bind for statically known layouts; it panics on error.
// It is intended for package-internal memory maps whose addresses are
// compile-time constants covered by tests.
func MustBind(m *Memory, name string, addr uint16) Var16 {
	v, err := Bind(m, name, addr)
	if err != nil {
		panic(err)
	}
	return v
}

// Name returns the variable name used in reports.
func (v Var16) Name() string { return v.name }

// Addr returns the bound address of the high byte.
func (v Var16) Addr() uint16 { return v.addr }

// Valid reports whether the variable is bound.
func (v Var16) Valid() bool { return v.w != nil }

// Get returns the current unsigned value. The sink is read on every
// access, not cached at Bind, because it may be armed after the
// variable was bound.
func (v Var16) Get() uint16 {
	if v.mem.sink != nil {
		return v.getTraced()
	}
	return binary.BigEndian.Uint16(v.w[:])
}

// Set stores the unsigned value.
func (v Var16) Set(x uint16) {
	if v.mem.sink != nil {
		v.setTraced(x)
		return
	}
	binary.BigEndian.PutUint16(v.w[:], x)
}

// getTraced is Get with the sink armed. It stays out of line so that
// Get itself fits the inlining budget.
//
//go:noinline
func (v Var16) getTraced() uint16 {
	v.mem.sink.OnAccess(v.addr, 2, false)
	return binary.BigEndian.Uint16(v.w[:])
}

// setTraced is Set with the sink armed.
//
//go:noinline
func (v Var16) setTraced(x uint16) {
	v.mem.sink.OnAccess(v.addr, 2, true)
	binary.BigEndian.PutUint16(v.w[:], x)
}

// GetSigned returns the value interpreted as a two's-complement int16,
// widened to int32 for arithmetic convenience.
func (v Var16) GetSigned() int32 { return int32(int16(v.Get())) }

// SetSigned stores a signed value, truncating to 16 bits like the
// target's store instruction would.
func (v Var16) SetSigned(x int32) { v.Set(uint16(int16(x))) }

// Add adds d to the stored unsigned value with 16-bit wrap-around and
// returns the new value (the CLOCK module's millisecond counter relies
// on this wrap behaviour).
func (v Var16) Add(d uint16) uint16 {
	x := v.Get() + d
	v.Set(x)
	return x
}

// AddSat adds d (which may be negative) to the stored unsigned value,
// saturating at 0 and 65535 instead of wrapping.
func (v Var16) AddSat(d int32) uint16 {
	x := int32(v.Get()) + d
	if x < 0 {
		x = 0
	}
	if x > 0xFFFF {
		x = 0xFFFF
	}
	v.Set(uint16(x))
	return uint16(x)
}
