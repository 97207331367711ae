package engine_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"setagreement/internal/engine"
	"setagreement/internal/shmem"
)

// TestParkPublishAtEveryBoundary drives a memory publish into each window of
// the park protocol in turn — before the wake registration exists, after the
// sources are armed but before the final CAS, and after the park committed —
// and asserts the proposal resumes with a notify wake and no leaked waiter
// registration in every case. The first window is the lost-wakeup race the
// notifier's version re-check closes; this pins it deterministically. At
// each boundary it also samples the Parked gauge, which counts a proposal
// only while all its wake sources are armed.
func TestParkPublishAtEveryBoundary(t *testing.T) {
	type sample struct {
		stage  engine.ParkStage
		parked int64 // e.Parked() at the boundary
	}
	registered := sample{engine.ParkRegistered, 0}
	armed := sample{engine.ParkArmed, 1}
	abandoned := sample{engine.ParkAbandoned, 0}
	committed := sample{engine.ParkCommitted, 1}
	cases := []struct {
		stage engine.ParkStage
		want  []sample // full stage trace of the single park
	}{
		{engine.ParkRegistered, []sample{registered, armed, abandoned}},
		{engine.ParkArmed, []sample{registered, armed, abandoned}},
		{engine.ParkCommitted, []sample{registered, armed, committed}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.stage.String(), func(t *testing.T) {
			e := engine.New(1)
			defer e.Close()
			var b shmem.Broadcast
			var once sync.Once
			stages := make(chan sample, 8)
			e.SetParkHook(func(s engine.ParkStage) {
				stages <- sample{s, e.Parked()}
				if s == tc.stage {
					once.Do(func() { b.Publish() })
				}
			})
			resumed := make(chan engine.Wake, 1)
			e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
				if w.Reason == engine.WakeStart {
					return engine.Park{Notifier: &b, Version: b.Version(), Cap: time.Hour}, true
				}
				resumed <- w
				return engine.Park{}, false
			}))

			select {
			case w := <-resumed:
				if w.Reason != engine.WakeNotify {
					t.Fatalf("resumed with reason %v, want notify", w.Reason)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("publish at stage %v never resumed the parked proposal (lost wakeup)", tc.stage)
			}
			deadline := time.Now().Add(10 * time.Second)
			for e.InFlight() != 0 || b.Waiters() != 0 || e.Parked() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("after resume: InFlight=%d Waiters=%d Parked=%d, want 0/0/0",
						e.InFlight(), b.Waiters(), e.Parked())
				}
				runtime.Gosched()
			}

			var got []sample
			for len(got) < len(tc.want) {
				select {
				case s := <-stages:
					got = append(got, s)
				case <-time.After(10 * time.Second):
					t.Fatalf("park stages = %v, want %v", got, tc.want)
				}
			}
			for i, s := range tc.want {
				if got[i] != s {
					t.Fatalf("park stages = %v, want %v", got, tc.want)
				}
			}
			select {
			case s := <-stages:
				t.Fatalf("unexpected extra park stage %v after %v", s, got)
			default:
			}
		})
	}
}
