package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"unsafe"
)

// History is the sequence of values a process has output in earlier
// instances of repeated set agreement, encoded as a string so that the
// register tuples carrying it stay comparable with == (the pseudocode
// compares whole tuples for identity, and Figure 5's ID-less tuples must
// compare by content).
//
// Each entry is a fixed-width 8-byte little-endian word, so Len and At are
// O(1). The empty History is the empty sequence.
type History string

// histWidth is the encoded size of one entry.
const histWidth = 8

// HistoryOf builds a History from values.
func HistoryOf(vals ...int) History {
	b := make([]byte, 0, len(vals)*histWidth)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return History(b)
}

// Len returns the number of values in the sequence.
func (h History) Len() int { return len(h) / histWidth }

// At returns the t-th value, 1-based as in the paper. It panics if t is out
// of range; callers check Len first, exactly as the pseudocode does.
func (h History) At(t int) int {
	if t < 1 || t > h.Len() {
		panic(fmt.Sprintf("core: history %q has no instance %d", h, t))
	}
	return h.at(t - 1)
}

// at decodes the 0-based entry i.
func (h History) at(i int) int {
	s := h[i*histWidth : i*histWidth+histWidth]
	return int(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
}

// Append returns the history extended with v, as a fresh copy: O(Len).
// Processes extend their own history through a historyBuf instead.
func (h History) Append(v int) History {
	var e [histWidth]byte
	binary.LittleEndian.PutUint64(e[:], uint64(v))
	return h + History(e[:])
}

// Values decodes the full sequence.
func (h History) Values() []int {
	if h == "" {
		return nil
	}
	out := make([]int, h.Len())
	for i := range out {
		out[i] = h.at(i)
	}
	return out
}

// String renders the sequence as comma-separated decimals ("" when empty).
// The rendering is injective, which state-space exploration relies on when
// it keys configurations by the rendered memory.
func (h History) String() string {
	b := make([]byte, 0, len(h))
	for i := 0; i < h.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(h.at(i)), 10)
	}
	return string(b)
}

// historyBuf is a process's own output history as an append-only byte
// buffer. The History values it issues (view) are zero-copy prefixes of the
// buffer; the owner only ever writes past the buffer's length, so every
// issued History stays immutable and extending the process's own history is
// O(1) amortized instead of a whole-history copy per decision.
//
// Adopting a foreign History aliases its bytes with cap == len, so the next
// extend reallocates: the owner can never write into another process's
// bytes (or into a prefix of its own array that it handed out earlier and
// got back). That adoption costs one O(Len) copy on the next extend, no
// worse than a value-semantics Append.
type historyBuf []byte

// view returns the buffer's current contents as a History without copying.
func (b historyBuf) view() History {
	return History(unsafe.String(unsafe.SliceData(b), len(b)))
}

// adopt replaces the buffer with the bytes of h, without copying.
func (b *historyBuf) adopt(h History) {
	*b = unsafe.Slice(unsafe.StringData(string(h)), len(h))
}

// extend appends v in place when the buffer has room, growing it as append
// does otherwise.
func (b *historyBuf) extend(v int) {
	*b = binary.LittleEndian.AppendUint64(*b, uint64(v))
}
