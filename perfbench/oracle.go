package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
)

// record is one proposal as the oracle sees it: the key (a workload-local
// object index), the instance it accessed, the value proposed and the value
// decided. err marks a proposal that returned an error instead of deciding.
type record struct {
	key, inst int32
	prop, dec int64
	err       bool
}

// verdict is the oracle's account of one set of records.
type verdict struct {
	attempted  int
	failed     int    // records with an error or a decision that breaks validity or k-agreement
	violations int    // the safety violations among failed
	first      string // the first violation or error, for the report
}

// check verifies the paper's two safety properties over every decision of
// a pass: validity (a decided value was proposed in that instance of that
// object) and k-agreement (at most k distinct values are decided per
// instance). Errors count as failures too.
func check(recs []record, k int) verdict {
	v := verdict{attempted: len(recs)}
	fail := func(msg string) {
		v.failed++
		if v.first == "" {
			v.first = msg
		}
	}
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b record) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.inst, b.inst))
	})
	var props, decs []int64
	for lo := 0; lo < len(sorted); {
		hi := lo
		props = props[:0]
		for ; hi < len(sorted) && sorted[hi].key == sorted[lo].key && sorted[hi].inst == sorted[lo].inst; hi++ {
			props = append(props, sorted[hi].prop)
		}
		decs = decs[:0]
		for _, r := range sorted[lo:hi] {
			switch {
			case r.err:
				fail(fmt.Sprintf("key %d instance %d: proposal returned an error", r.key, r.inst))
			case !slices.Contains(props, r.dec):
				v.violations++
				fail(fmt.Sprintf("key %d instance %d: decided %d, which nobody proposed", r.key, r.inst, r.dec))
			case !slices.Contains(decs, r.dec):
				decs = append(decs, r.dec)
				if len(decs) > k {
					v.violations++
					fail(fmt.Sprintf("key %d instance %d: %d distinct decisions %v, k = %d", r.key, r.inst, len(decs), decs, k))
				}
			}
		}
		lo = hi
	}
	return v
}

// work summarises the amount of work a pass did: how many decisions, and a
// digest of every key's final depth (its highest instance). Two passes of
// one seed must produce the same work, or they measured different things.
type work struct {
	decisions int
	digest    uint64
}

func workOf(recs []record) work {
	var depth []int32
	w := work{}
	for _, r := range recs {
		if r.err {
			continue
		}
		w.decisions++
		for int(r.key) >= len(depth) {
			depth = append(depth, 0)
		}
		depth[r.key] = max(depth[r.key], r.inst)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, d := range depth {
		b[0], b[1], b[2], b[3] = byte(d), byte(d>>8), byte(d>>16), byte(d>>24)
		h.Write(b[:])
	}
	w.digest = h.Sum64()
	return w
}

func (w work) String() string {
	return fmt.Sprintf("decisions=%d depth_digest=%016x", w.decisions, w.digest)
}
