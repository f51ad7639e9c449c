package controlplane

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRollout(t *testing.T, clock *fakeClock) (*Rollout, *Store, string, string) {
	t.Helper()
	store, _ := NewStore("")
	stable, _, err := store.Put(synthBundle(t, 1))
	if err != nil {
		t.Fatalf("Put stable: %v", err)
	}
	cand, _, err := store.Put(synthBundle(t, 2))
	if err != nil {
		t.Fatalf("Put candidate: %v", err)
	}
	ro := NewRollout(store, RolloutConfig{
		CanaryPercent: 25,
		ReplicaTTL:    30 * time.Second,
		Now:           clock.now,
	})
	if err := ro.SetStable(stable); err != nil {
		t.Fatalf("SetStable: %v", err)
	}
	return ro, store, stable, cand
}

// register sends an initial heartbeat serving hash for each replica id.
func register(ro *Rollout, hash string, ids ...string) {
	for _, id := range ids {
		ro.Observe(Heartbeat{ReplicaID: id, ActiveHash: hash, CandidateStatus: CandidateNone})
	}
}

func TestRingAssignmentIsRankBasedAndDeterministic(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, _ := newTestRollout(t, clock)

	// 3 replicas at 25% → ceil(0.75) = 1 canary, the lexicographically
	// first id.
	register(ro, stable, "r-b", "r-c", "r-a")
	if ring := ro.RingOf("r-a"); ring != RingCanary {
		t.Fatalf("r-a ring = %s, want canary", ring)
	}
	for _, id := range []string{"r-b", "r-c"} {
		if ring := ro.RingOf(id); ring != RingFleet {
			t.Fatalf("%s ring = %s, want fleet", id, ring)
		}
	}
	// 8 replicas at 25% → exactly 2 canary.
	for i := 3; i < 8; i++ {
		register(ro, stable, fmt.Sprintf("r-%c", 'a'+i))
	}
	canary := 0
	for i := 0; i < 8; i++ {
		if ro.RingOf(fmt.Sprintf("r-%c", 'a'+i)) == RingCanary {
			canary++
		}
	}
	if canary != 2 {
		t.Fatalf("canary ring size = %d of 8 at 25%%, want 2", canary)
	}
	// Unknown replicas resolve to the fleet ring.
	if ring := ro.RingOf("never-seen"); ring != RingFleet {
		t.Fatalf("unknown replica ring = %s, want fleet", ring)
	}
}

// TestRingAssignmentFrozenMidRollout: a replica joining while a rollout
// is in flight must not trigger a re-split — that could pull an existing
// fleet replica into the canary ring (exposing it to the in-flight
// candidate) or demote a canary that already promoted it. Joiners park
// in the fleet ring; the deterministic split resumes once the rollout
// settles.
func TestRingAssignmentFrozenMidRollout(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-b", "r-c") // 2 replicas at 25% → 1 canary: r-b
	if ro.RingOf("r-b") != RingCanary || ro.RingOf("r-c") != RingFleet {
		t.Fatalf("pre-rollout rings: r-b=%s r-c=%s, want canary/fleet", ro.RingOf("r-b"), ro.RingOf("r-c"))
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// r-a sorts before every existing id; a naive re-split would make it
	// the canary and demote r-b.
	ring, _ := ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable, CandidateStatus: CandidateNone})
	if ring != RingFleet {
		t.Fatalf("mid-rollout joiner assigned ring %s, want fleet", ring)
	}
	if ro.RingOf("r-b") != RingCanary || ro.RingOf("r-c") != RingFleet {
		t.Fatalf("mid-rollout join churned rings: r-b=%s r-c=%s", ro.RingOf("r-b"), ro.RingOf("r-c"))
	}
	// The joiner's manifest still desires stable: it is never exposed to
	// the in-flight candidate.
	if m := ro.Manifest(RingFleet); m.DesiredHash != stable {
		t.Fatalf("fleet manifest desires %s mid-canary, want stable", short(m.DesiredHash))
	}

	// Settling the rollout folds the joiner into the normal split: r-a is
	// now the lexicographically first of three.
	if err := ro.Rollback("test settle"); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if ro.RingOf("r-a") != RingCanary || ro.RingOf("r-b") != RingFleet {
		t.Fatalf("post-settle rings: r-a=%s r-b=%s, want canary/fleet", ro.RingOf("r-a"), ro.RingOf("r-b"))
	}

	// The freeze also holds through the fleet stage and a promoted finish.
	if err := ro.Start(cand); err != nil {
		t.Fatalf("second Start: %v", err)
	}
	ro.Observe(Heartbeat{ReplicaID: "a-0", ActiveHash: stable, CandidateStatus: CandidateNone})
	if ro.RingOf("a-0") != RingFleet || ro.RingOf("r-a") != RingCanary {
		t.Fatalf("second mid-rollout join churned rings: a-0=%s r-a=%s", ro.RingOf("a-0"), ro.RingOf("r-a"))
	}
	if err := ro.Promote(); err != nil { // canary → fleet
		t.Fatalf("Promote: %v", err)
	}
	ro.Observe(Heartbeat{ReplicaID: "a-1", ActiveHash: stable, CandidateStatus: CandidateNone})
	if ro.RingOf("a-1") != RingFleet {
		t.Fatalf("fleet-stage joiner assigned ring %s, want fleet", ro.RingOf("a-1"))
	}
	if err := ro.Promote(); err != nil { // fleet → done
		t.Fatalf("Promote to done: %v", err)
	}
	// 5 replicas at 25% → ceil(1.25) = 2 canary: a-0, a-1.
	if ro.RingOf("a-0") != RingCanary || ro.RingOf("a-1") != RingCanary || ro.RingOf("r-a") != RingFleet {
		t.Fatalf("post-done rings: a-0=%s a-1=%s r-a=%s, want canary/canary/fleet",
			ro.RingOf("a-0"), ro.RingOf("a-1"), ro.RingOf("r-a"))
	}
}

func TestStagedRolloutCanaryThenFleetThenDone(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-a", "r-b", "r-c") // r-a is canary

	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Canary ring wants the candidate; fleet ring still wants stable.
	if m := ro.Manifest(RingCanary); m.DesiredHash != cand || m.RolloutState != StateCanary {
		t.Fatalf("canary manifest = %+v, want desired=%s state=canary", m, short(cand))
	}
	if m := ro.Manifest(RingFleet); m.DesiredHash != stable {
		t.Fatalf("fleet manifest desired = %s, want stable %s", short(m.DesiredHash), short(stable))
	}

	// Fleet replicas confirming the *stable* hash must not advance anything.
	register(ro, stable, "r-b", "r-c")
	if s := ro.Snapshot(); s.State != StateCanary {
		t.Fatalf("state advanced to %s without canary confirmation", s.State)
	}

	// The canary confirms the candidate → fleet stage.
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand,
		CandidateHash: cand, CandidateStatus: CandidatePromoted,
		CandidateSamples: 50, CandidateAgreement: 0.98})
	if s := ro.Snapshot(); s.State != StateFleet {
		t.Fatalf("state = %s after canary confirm, want fleet", s.State)
	}
	if m := ro.Manifest(RingFleet); m.DesiredHash != cand {
		t.Fatalf("fleet manifest desired = %s in fleet stage, want candidate", short(m.DesiredHash))
	}

	// All replicas confirm → done, candidate becomes stable.
	register(ro, cand, "r-b", "r-c")
	snap := ro.Snapshot()
	if snap.State != StateDone {
		t.Fatalf("state = %s after fleet confirm, want done", snap.State)
	}
	if snap.StableHash != cand || snap.CandidateHash != "" {
		t.Fatalf("stable=%s candidate=%q after done, want stable=candidate", short(snap.StableHash), snap.CandidateHash)
	}
}

func TestRolloutRollsBackOnRejectedCandidate(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-a", "r-b", "r-c")
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable,
		CandidateHash: cand, CandidateStatus: CandidateRejected,
		CandidateSamples: 40, CandidateAgreement: 0.31})
	snap := ro.Snapshot()
	if snap.State != StateRolledBack {
		t.Fatalf("state = %s after rejection, want rolled_back", snap.State)
	}
	if !strings.Contains(snap.RollbackReason, "rejected") {
		t.Fatalf("rollback reason %q does not mention rejection", snap.RollbackReason)
	}
	// Every ring reverts to stable.
	for _, ring := range []string{RingCanary, RingFleet} {
		if m := ro.Manifest(ring); m.DesiredHash != stable {
			t.Fatalf("%s manifest desired = %s after rollback, want stable", ring, short(m.DesiredHash))
		}
	}
}

// TestRolloutActsOnReplicaVerdictNotRawAgreement pins where the agreement
// gate lives: the replica's soak judges shadow evidence, and the control
// plane acts only on its verdict. A soaking heartbeat carrying low
// agreement over many samples is evidence still being judged, not a
// rollback; the same evidence reported as rejected is.
func TestRolloutActsOnReplicaVerdictNotRawAgreement(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-a", "r-b")
	ro.Start(cand)

	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable,
		CandidateHash: cand, CandidateStatus: CandidateSoaking,
		CandidateSamples: 500, CandidateAgreement: 0.1})
	if s := ro.Snapshot(); s.State != StateCanary {
		t.Fatalf("state = %s on a soaking heartbeat, want canary (reason %q)", s.State, s.RollbackReason)
	}
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable,
		CandidateHash: cand, CandidateStatus: CandidateRejected,
		CandidateSamples: 500, CandidateAgreement: 0.1})
	s := ro.Snapshot()
	if s.State != StateRolledBack {
		t.Fatalf("state = %s on a rejection heartbeat, want rolled_back", s.State)
	}
	if !strings.Contains(s.RollbackReason, "r-a rejected") {
		t.Fatalf("rollback reason %q does not name the rejecting replica", s.RollbackReason)
	}
}

func TestRolloutRollsBackOnDriftAlert(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-a", "r-b")
	ro.Start(cand)
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand,
		CandidateHash: cand, CandidateStatus: CandidatePromoted,
		DriftStatus: "alert"})
	if s := ro.Snapshot(); s.State != StateRolledBack {
		t.Fatalf("state = %s with drift alert on candidate, want rolled_back", s.State)
	}
}

func TestRolloutRollsBackOnLatencyRegression(t *testing.T) {
	clock := newFakeClock()
	store, _ := NewStore("")
	stable, _, _ := store.Put(synthBundle(t, 1))
	cand, _, _ := store.Put(synthBundle(t, 2))
	ro := NewRollout(store, RolloutConfig{
		MaxP99Ratio: 2.0,
		ReplicaTTL:  30 * time.Second,
		Now:         clock.now,
	})
	ro.SetStable(stable)
	// Baseline p99 of 100us is captured at Start.
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable, SelectP99US: 100, CandidateStatus: CandidateNone})
	ro.Start(cand)
	// Serving the candidate at 150us (1.5x) is fine...
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand, SelectP99US: 150,
		CandidateHash: cand, CandidateStatus: CandidatePromoted})
	if s := ro.Snapshot(); s.State == StateRolledBack {
		t.Fatal("rolled back at 1.5x baseline with MaxP99Ratio=2")
	}
	// Restart a rollout to test the trip side with a fresh baseline.
	ro2 := NewRollout(store, RolloutConfig{MaxP99Ratio: 2.0, ReplicaTTL: 30 * time.Second, Now: clock.now})
	ro2.SetStable(stable)
	ro2.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: stable, SelectP99US: 100, CandidateStatus: CandidateNone})
	ro2.Start(cand)
	ro2.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand, SelectP99US: 250,
		CandidateHash: cand, CandidateStatus: CandidatePromoted})
	if s := ro2.Snapshot(); s.State != StateRolledBack {
		t.Fatalf("state = %s at 2.5x baseline p99, want rolled_back", s.State)
	}
}

func TestStaleReplicasCannotWedgeOrVeto(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	register(ro, stable, "r-a", "r-b", "r-c")
	ro.Start(cand)

	// r-b and r-c go silent past the TTL; only r-a (canary) stays live.
	clock.advance(60 * time.Second)
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand,
		CandidateHash: cand, CandidateStatus: CandidatePromoted})
	if s := ro.Snapshot(); s.State != StateFleet {
		t.Fatalf("state = %s, want fleet (stale replicas must not wedge canary confirm)", s.State)
	}
	// In the fleet stage the same single live replica already serves the
	// candidate, so the rollout completes despite the stale pair.
	ro.Observe(Heartbeat{ReplicaID: "r-a", ActiveHash: cand,
		CandidateHash: cand, CandidateStatus: CandidatePromoted})
	if s := ro.Snapshot(); s.State != StateDone {
		t.Fatalf("state = %s, want done (stale replicas excluded from fleet gate)", s.State)
	}
	snap := ro.Snapshot()
	stale := 0
	for _, ri := range snap.Replicas {
		if ri.Stale {
			stale++
		}
	}
	if stale != 2 {
		t.Fatalf("snapshot shows %d stale replicas, want 2", stale)
	}
}

func TestRolloutVerbErrors(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)

	if err := ro.Start("0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Fatal("Start accepted a hash not in the store")
	}
	if err := ro.Start(stable); err == nil {
		t.Fatal("Start accepted the stable hash as candidate")
	}
	if err := ro.Promote(); err == nil {
		t.Fatal("Promote succeeded in idle state")
	}
	if err := ro.Rollback("x"); err == nil {
		t.Fatal("Rollback succeeded in idle state")
	}
	if err := ro.Start(cand); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := ro.Start(cand); err == nil {
		t.Fatal("Start accepted a second rollout while one is in flight")
	}
	if err := ro.SetStable(stable); err == nil {
		t.Fatal("SetStable succeeded mid-rollout")
	}
	// Manual promote path: canary → fleet → done.
	if err := ro.Promote(); err != nil {
		t.Fatalf("Promote canary→fleet: %v", err)
	}
	if err := ro.Promote(); err != nil {
		t.Fatalf("Promote fleet→done: %v", err)
	}
	if s := ro.Snapshot(); s.State != StateDone || s.StableHash != cand {
		t.Fatalf("after manual promotes: state=%s stable=%s, want done/%s", s.State, short(s.StableHash), short(cand))
	}
}

func TestRevChangesOnStateAndMembership(t *testing.T) {
	clock := newFakeClock()
	ro, _, stable, cand := newTestRollout(t, clock)
	r0 := ro.Rev()
	register(ro, stable, "r-a")
	r1 := ro.Rev()
	if r1 == r0 {
		t.Fatal("Rev unchanged after membership change")
	}
	// Re-heartbeating an already known replica with no state change keeps
	// the rev stable — this is what makes steady-state 304 polling work.
	register(ro, stable, "r-a")
	if ro.Rev() != r1 {
		t.Fatal("Rev changed on a steady-state heartbeat")
	}
	ro.Start(cand)
	if ro.Rev() == r1 {
		t.Fatal("Rev unchanged after rollout start")
	}
}
