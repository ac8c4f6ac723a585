// Package columnstore implements the main-memory column store at the base
// of the ecosystem: sorted dictionary encoding, bit-packed value vectors,
// run-length and sparse columns, a write-optimized delta store, and the
// delta→main merge with dictionary resorting (plus the application-aware
// stable-key fast path described in §III of the paper). A merge is a
// background build: Table.BeginMerge freezes a view under the table lock,
// builds the new main store beside the old one holding no lock, and
// PendingMerge.Publish swaps it in under the lock for as long as what
// arrived meanwhile takes to re-house; inserts, deletes and snapshots go on
// throughout, and a row keeps its ID across it.
package columnstore

import "math/bits"

// BitPacked is an immutable vector of unsigned integers packed at the
// minimal bit width. It is the physical representation of dictionary value
// IDs and frame-of-reference encoded integers in main storage.
type BitPacked struct {
	words []uint64
	width uint // bits per entry, 0..64 (0 = all values are zero)
	n     int
}

// PackUints packs vals at the minimal width that fits max(vals).
func PackUints(vals []uint64) *BitPacked {
	var maxV uint64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	bp := newBitPacked(len(vals), maxV)
	if bp.width > 0 {
		for i, v := range vals {
			bp.set(i, v)
		}
	}
	return bp
}

// packOffsets packs vals[i]-base, none of which may be negative, at the
// minimal width — PackUints without an unsigned copy of vals.
func packOffsets(vals []int64, base int64) *BitPacked {
	var maxV uint64
	for _, v := range vals {
		if o := uint64(v - base); o > maxV {
			maxV = o
		}
	}
	bp := newBitPacked(len(vals), maxV)
	if bp.width > 0 {
		for i, v := range vals {
			bp.set(i, uint64(v-base))
		}
	}
	return bp
}

// newBitPacked returns a zeroed vector of n entries wide enough for maxV.
func newBitPacked(n int, maxV uint64) *BitPacked {
	width := uint(bits.Len64(maxV))
	bp := &BitPacked{width: width, n: n}
	if width > 0 {
		bp.words = make([]uint64, (n*int(width)+63)/64)
	}
	return bp
}

func (b *BitPacked) set(i int, v uint64) {
	bitPos := uint(i) * b.width
	word := bitPos >> 6
	off := bitPos & 63
	b.words[word] |= v << off
	if off+b.width > 64 {
		b.words[word+1] |= v >> (64 - off)
	}
}

// Get returns entry i.
func (b *BitPacked) Get(i int) uint64 {
	if b.width == 0 {
		return 0
	}
	bitPos := uint(i) * b.width
	word := bitPos >> 6
	off := bitPos & 63
	v := b.words[word] >> off
	if off+b.width > 64 {
		v |= b.words[word+1] << (64 - off)
	}
	if b.width == 64 {
		return v
	}
	return v & ((1 << b.width) - 1)
}

// Len returns the number of entries.
func (b *BitPacked) Len() int { return b.n }

// Width returns the bits used per entry.
func (b *BitPacked) Width() uint { return b.width }

// Bytes returns the heap footprint of the packed words.
func (b *BitPacked) Bytes() int { return len(b.words) * 8 }

// Unpack materializes all entries into a fresh slice.
func (b *BitPacked) Unpack() []uint64 {
	out := make([]uint64, b.n)
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}

// Bitset is a simple growable bitmap used for null tracking and row
// visibility marks.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset sized for n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Set sets bit i, growing the bitset if needed.
func (s *Bitset) Set(i int) {
	s.ensure(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Bitset) Clear(i int) {
	s.ensure(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set. Out-of-range bits read as zero.
func (s *Bitset) Get(i int) bool {
	if i < 0 || i>>6 >= len(s.words) {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Len returns the logical size in bits.
func (s *Bitset) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Bitset) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Bitset) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Bytes returns the heap footprint.
func (s *Bitset) Bytes() int { return len(s.words) * 8 }

func (s *Bitset) ensure(i int) {
	if i >= s.n {
		s.n = i + 1
	}
	if w := i >> 6; w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
}
