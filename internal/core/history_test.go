package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"setagreement/internal/shmem"
)

func TestHistoryBasics(t *testing.T) {
	var h History
	if h.Len() != 0 {
		t.Fatalf("empty history Len = %d, want 0", h.Len())
	}
	h = h.Append(5)
	h = h.Append(-3)
	h = h.Append(0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	tests := []struct {
		give int
		want int
	}{
		{give: 1, want: 5},
		{give: 2, want: -3},
		{give: 3, want: 0},
	}
	for _, tt := range tests {
		if got := h.At(tt.give); got != tt.want {
			t.Errorf("At(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
	vals := h.Values()
	if len(vals) != 3 || vals[0] != 5 || vals[1] != -3 || vals[2] != 0 {
		t.Fatalf("Values = %v", vals)
	}
}

func TestHistoryOf(t *testing.T) {
	h := HistoryOf(1, 2, 3)
	if h.Len() != 3 || h.At(2) != 2 {
		t.Fatalf("HistoryOf = %q", h)
	}
	if HistoryOf().Len() != 0 {
		t.Fatal("HistoryOf() not empty")
	}
}

func TestHistoryComparable(t *testing.T) {
	a := HistoryOf(1, 2)
	b := HistoryOf(1).Append(2)
	if a != b {
		t.Fatalf("equal histories compare unequal: %q vs %q", a, b)
	}
	if HistoryOf(12) == HistoryOf(1, 2) {
		t.Fatal("distinct histories compare equal")
	}
}

func TestHistoryAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	HistoryOf(1).At(2)
}

func TestHistoryFixedWidthRoundTrip(t *testing.T) {
	vals := []int{0, 1, -1, 42, -7, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1}
	var b historyBuf
	for _, v := range vals {
		b.extend(v)
	}
	for name, h := range map[string]History{
		"HistoryOf": HistoryOf(vals...),
		"owned":     b.view(),
	} {
		if len(h) != histWidth*len(vals) || h.Len() != len(vals) {
			t.Fatalf("%s: %d bytes, Len %d; want %d bytes, Len %d",
				name, len(h), h.Len(), histWidth*len(vals), len(vals))
		}
		for i, v := range vals {
			if got := h.At(i + 1); got != v {
				t.Errorf("%s: At(%d) = %d, want %d", name, i+1, got, v)
			}
		}
		if got := h.Values(); !slices.Equal(got, vals) {
			t.Errorf("%s: Values = %v, want %v", name, got, vals)
		}
	}
}

func TestHistoryContentEquality(t *testing.T) {
	want := HistoryOf(3, -1, math.MinInt, 9)
	var appended History
	var owned historyBuf
	for _, v := range want.Values() {
		appended = appended.Append(v)
		owned.extend(v)
	}
	var adopted historyBuf
	adopted.adopt(HistoryOf(3, -1))
	adopted.extend(math.MinInt)
	adopted.extend(9)
	for name, h := range map[string]History{
		"Append":         appended,
		"owner-extended": owned.view(),
		"adopt+extend":   adopted.view(),
	} {
		if h != want {
			t.Errorf("%s = %v, want %v", name, h, want)
		}
		// Tuples carrying content-equal histories are one tuple to the
		// scan helpers, whichever buffer the bytes live in.
		if distinctCount([]shmem.Value{ATuple{Val: 1, T: 5, His: h}, ATuple{Val: 1, T: 5, His: want}}) != 1 {
			t.Errorf("%s: content-equal tuples counted as distinct", name)
		}
	}
	if HistoryOf(1, 2) == HistoryOf(2, 1) || HistoryOf(0) == HistoryOf() {
		t.Fatal("distinct histories compare equal")
	}
}

// issued records a History handed out by a buffer along with a private copy
// of its bytes, to check later that the issued string never changed.
type issued struct{ h, frozen History }

func issue(h History) issued { return issued{h, History(strings.Clone(string(h)))} }

func checkIssued(t *testing.T, what string, all []issued) {
	t.Helper()
	for i, is := range all {
		if is.h != is.frozen {
			t.Fatalf("%s: issued history %d changed: %v, was %v", what, i, is.h, is.frozen)
		}
	}
}

func TestHistoryBufIssuedPrefixesStayImmutable(t *testing.T) {
	var b historyBuf
	var all []issued
	grew := 0
	for v := 0; v < 1000; v++ {
		before := cap(b)
		b.extend(v)
		if cap(b) != before {
			grew++
		}
		all = append(all, issue(b.view()))
	}
	if grew < 2 {
		t.Fatalf("buffer grew %d times; the test must cross a reallocation", grew)
	}
	checkIssued(t, "owner extends", all)

	// A foreign process adopts a proper prefix of b's array (b has bytes
	// past it) and appends: it must not write into b's array.
	if cap(b) == len(b) {
		b.extend(-1)
	}
	all = append(all, issue(b.view()))
	var q historyBuf
	q.adopt(all[499].h)
	q.extend(7)
	if q.view().Len() != 501 || q.view().At(501) != 7 {
		t.Fatalf("adopted history extended to %v", q.view().Values()[495:])
	}
	checkIssued(t, "foreign adopt+extend", all)

	// The owner adopts back an earlier prefix of its own array (a history
	// it issued, now read back from shared memory) and extends it: the
	// longer histories it issued from that array must not change either.
	b.adopt(all[9].h)
	b.extend(8)
	all = append(all, issue(b.view()))
	checkIssued(t, "owner re-adopt+extend", all)
	if got := all[len(all)-1].h; got.Len() != 11 || got.At(11) != 8 || got.At(10) != 9 {
		t.Fatalf("re-adopted history = %v", got)
	}
}

// TestHistoryBufConcurrentReaders runs under -race in CI: readers hold and
// compare issued histories while the owner keeps extending its buffer.
func TestHistoryBufConcurrentReaders(t *testing.T) {
	const n, readers = 2000, 2
	chans := make([]chan History, readers)
	for i := range chans {
		chans[i] = make(chan History, 16)
	}
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for _, ch := range chans {
		wg.Add(1)
		go func(ch <-chan History) {
			defer wg.Done()
			var held []History
			for h := range ch {
				held = append(held, h)
				// Re-verify a few held views on every receipt, while the
				// owner is extending past them.
				for _, old := range held[max(0, len(held)-4):] {
					if l := old.Len(); l < 1 || old.At(l) != l-1 || old.At(1) != 0 {
						errs <- fmt.Sprintf("held history of length %d reads %d at its end", l, old.At(l))
						return
					}
				}
			}
			for i, h := range held {
				if h != HistoryOf(seq(h.Len())...) {
					errs <- fmt.Sprintf("held history %d changed", i)
					return
				}
			}
		}(ch)
	}
	var b historyBuf
	for v := 0; v < n; v++ {
		b.extend(v)
		if v%(n/200) == 0 || v == n-1 {
			for _, ch := range chans {
				ch <- b.view()
			}
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHistoryString(t *testing.T) {
	tests := []struct {
		give History
		want string
	}{
		{give: HistoryOf(), want: ""},
		{give: HistoryOf(0), want: "0"},
		{give: HistoryOf(1, -2, 30), want: "1,-2,30"},
		{give: HistoryOf(math.MinInt, math.MaxInt), want: fmt.Sprintf("%d,%d", math.MinInt, math.MaxInt)},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.give.Values(), got, tt.want)
		}
	}
	if got := (RTuple{Val: 5, ID: 1, T: 3, His: HistoryOf(4, 6)}).String(); got != `(5,p1,t3,"4,6")` {
		t.Errorf("RTuple.String = %s", got)
	}
	if got := (ATuple{Val: 5, T: 2, His: HistoryOf(-4)}).String(); got != `(5,t2,"-4")` {
		t.Errorf("ATuple.String = %s", got)
	}
}
