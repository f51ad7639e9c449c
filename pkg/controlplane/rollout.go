package controlplane

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// RolloutConfig tunes the staged-rollout controller.
type RolloutConfig struct {
	// CanaryPercent is the share of replicas (by count, rounded up, at
	// least one) assigned to the canary ring. Default 25.
	CanaryPercent float64
	// MaxP99Ratio rolls back when a replica serving the candidate reports
	// a select p99 more than this multiple of its pre-rollout baseline.
	// 0 disables the latency gate.
	MaxP99Ratio float64
	// ReplicaTTL is how long after its last heartbeat a replica still
	// counts toward promotion gates; staler replicas are ignored (they
	// are listed as stale on /debug/rollout but cannot wedge a rollout).
	// Default 60s.
	ReplicaTTL time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (c *RolloutConfig) fill() {
	if c.CanaryPercent <= 0 || c.CanaryPercent > 100 {
		c.CanaryPercent = 25
	}
	if c.ReplicaTTL <= 0 {
		c.ReplicaTTL = 60 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// replicaState is the controller's view of one replica.
type replicaState struct {
	hb          Heartbeat
	lastSeen    time.Time
	baselineP99 float64 // select p99 at rollout start; 0 = unknown
}

// Rollout is the staged-rollout state machine. All state transitions are
// driven by Observe (heartbeats) and the explicit Start/Promote/Rollback
// verbs; reads (Manifest, Snapshot) are cheap and lock-shared.
type Rollout struct {
	cfg   RolloutConfig
	store *Store

	mu        sync.RWMutex
	rev       uint64 // bumped on any externally visible change (ETag)
	state     string
	stable    string // hash
	candidate string // hash; "" unless a rollout is in flight or rolled back
	reason    string // why the last rollback happened
	started   time.Time
	replicas  map[string]*replicaState
	rings     map[string]string // replica id -> ring
}

// NewRollout returns an idle controller over store.
func NewRollout(store *Store, cfg RolloutConfig) *Rollout {
	cfg.fill()
	return &Rollout{
		cfg:      cfg,
		store:    store,
		state:    StateIdle,
		replicas: make(map[string]*replicaState),
		rings:    make(map[string]string),
	}
}

// Rev returns the current revision counter; it changes whenever a
// manifest any ring sees could have changed (state, hashes, membership).
func (r *Rollout) Rev() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rev
}

// SetStable seeds or force-sets the fleet-wide stable hash. The hash must
// be present in the store. Only allowed while no rollout is in flight.
func (r *Rollout) SetStable(hash string) error {
	if _, ok := r.store.Get(hash); !ok {
		return fmt.Errorf("controlplane: stable hash %s not in store", short(hash))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateCanary || r.state == StateFleet {
		return fmt.Errorf("controlplane: rollout in flight (%s); rollback first", r.state)
	}
	if r.stable != hash {
		r.stable = hash
		r.rev++
	}
	return nil
}

// Start begins a staged rollout of hash: the canary ring's manifest
// switches to it while the fleet ring keeps the stable hash. Each
// replica's current select p99 is recorded as its latency baseline.
func (r *Rollout) Start(hash string) error {
	if _, ok := r.store.Get(hash); !ok {
		return fmt.Errorf("controlplane: candidate hash %s not in store", short(hash))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateCanary || r.state == StateFleet {
		return fmt.Errorf("controlplane: rollout of %s already in flight (%s)", short(r.candidate), r.state)
	}
	if hash == r.stable {
		return fmt.Errorf("controlplane: %s is already the stable hash", short(hash))
	}
	r.candidate = hash
	r.state = StateCanary
	r.reason = ""
	r.started = r.cfg.Now()
	for _, st := range r.replicas {
		st.baselineP99 = st.hb.SelectP99US
	}
	r.rev++
	return nil
}

// Promote force-advances the rollout: canary → fleet, fleet → done. It is
// the manual override for the heartbeat-driven automatic promotion.
func (r *Rollout) Promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateCanary:
		r.state = StateFleet
	case StateFleet:
		r.finishLocked()
	default:
		return fmt.Errorf("controlplane: nothing to promote in state %s", r.state)
	}
	r.rev++
	return nil
}

// Rollback withdraws the in-flight candidate: every ring's manifest
// reverts to the stable hash.
func (r *Rollout) Rollback(reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateCanary && r.state != StateFleet {
		return fmt.Errorf("controlplane: nothing to roll back in state %s", r.state)
	}
	r.rollbackLocked(reason)
	return nil
}

func (r *Rollout) rollbackLocked(reason string) {
	r.state = StateRolledBack
	r.reason = reason
	// The rollout settled: fold replicas that joined mid-flight (parked in
	// the fleet ring) into the normal deterministic split.
	r.assignRingsLocked()
	r.rev++
}

func (r *Rollout) finishLocked() {
	r.stable = r.candidate
	r.candidate = ""
	r.state = StateDone
	r.assignRingsLocked()
}

// Observe ingests one heartbeat: registers/refreshes the replica,
// recomputes ring assignment on membership change (frozen while a
// rollout is in flight — new replicas park in the fleet ring until it
// settles), applies the rollback gates, and auto-advances the state
// machine when every in-scope replica has confirmed the candidate. It
// returns the replica's authoritative ring assignment.
func (r *Rollout) Observe(hb Heartbeat) (ring string, state string) {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()

	st, known := r.replicas[hb.ReplicaID]
	if !known {
		st = &replicaState{}
		r.replicas[hb.ReplicaID] = st
		if r.state == StateCanary || r.state == StateFleet {
			// Ring assignments are frozen while a rollout is in flight: a
			// lexicographic re-split could pull an existing fleet replica
			// into the canary ring mid-stage (it would immediately start
			// pulling the in-flight candidate) or demote a canary that
			// already promoted it (reverting to stable and churning the
			// promotion gates). Newly joined replicas park in the fleet
			// ring; the full re-split happens when the rollout settles.
			r.rings[hb.ReplicaID] = RingFleet
		} else {
			r.assignRingsLocked()
		}
		r.rev++
	}
	st.hb = hb
	st.lastSeen = now

	r.evaluateLocked(now)
	return r.rings[hb.ReplicaID], r.state
}

// assignRingsLocked deterministically splits the replica set: ids sort
// lexicographically and the first ceil(N*CanaryPercent/100) (at least
// one) form the canary ring. Rank-based (not hash-based) so small fleets
// get an exact, predictable split.
func (r *Rollout) assignRingsLocked() {
	ids := make([]string, 0, len(r.replicas))
	for id := range r.replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	n := len(ids)
	canary := int(math.Ceil(float64(n) * r.cfg.CanaryPercent / 100))
	if canary < 1 && n > 0 {
		canary = 1
	}
	r.rings = make(map[string]string, n)
	for i, id := range ids {
		if i < canary {
			r.rings[id] = RingCanary
		} else {
			r.rings[id] = RingFleet
		}
	}
}

// evaluateLocked applies the rollback gates and automatic promotions
// against the current replica set. Replicas unseen within ReplicaTTL are
// out of scope: they can neither block nor confirm a promotion.
func (r *Rollout) evaluateLocked(now time.Time) {
	if r.state != StateCanary && r.state != StateFleet {
		return
	}
	cutoff := now.Add(-r.cfg.ReplicaTTL)

	// Gates first: any live replica with evidence against the candidate
	// rolls the whole fleet back. Shadow agreement is judged once, by the
	// replica's soak gate; its rejection heartbeat is the verdict acted on
	// here.
	for id, st := range r.replicas {
		if st.lastSeen.Before(cutoff) {
			continue
		}
		hb := st.hb
		if hb.CandidateHash == r.candidate && hb.CandidateStatus == CandidateRejected {
			r.rollbackLocked(fmt.Sprintf("replica %s rejected candidate (shadow agreement %.3f over %d samples)",
				id, hb.CandidateAgreement, hb.CandidateSamples))
			return
		}
		if hb.ActiveHash == r.candidate && hb.DriftStatus == "alert" {
			r.rollbackLocked(fmt.Sprintf("replica %s drift alert while serving candidate", id))
			return
		}
		if r.cfg.MaxP99Ratio > 0 && hb.ActiveHash == r.candidate &&
			st.baselineP99 > 0 && hb.SelectP99US > st.baselineP99*r.cfg.MaxP99Ratio {
			r.rollbackLocked(fmt.Sprintf("replica %s select p99 %.0fus exceeds %.1fx baseline %.0fus",
				id, hb.SelectP99US, r.cfg.MaxP99Ratio, st.baselineP99))
			return
		}
	}

	// Promotion: every live in-scope replica must have confirmed the
	// candidate as its active hash.
	scope := RingCanary
	if r.state == StateFleet {
		scope = "" // all rings
	}
	confirmed, inScope := 0, 0
	for id, st := range r.replicas {
		if st.lastSeen.Before(cutoff) {
			continue
		}
		if scope != "" && r.rings[id] != scope {
			continue
		}
		inScope++
		if st.hb.ActiveHash == r.candidate {
			confirmed++
		}
	}
	if inScope == 0 || confirmed < inScope {
		return
	}
	if r.state == StateCanary {
		r.state = StateFleet
	} else {
		r.finishLocked()
	}
	r.rev++
}

// Manifest returns the desired serving state for ring. Unknown or empty
// ring names resolve to the fleet ring (the conservative view).
func (r *Rollout) Manifest(ring string) Manifest {
	if ring != RingCanary {
		ring = RingFleet
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	desired := r.stable
	switch r.state {
	case StateCanary:
		if ring == RingCanary {
			desired = r.candidate
		}
	case StateFleet:
		desired = r.candidate
	}
	return Manifest{
		Ring:              ring,
		DesiredHash:       desired,
		DesiredGeneration: r.store.Seq(desired),
		StableHash:        r.stable,
		RolloutState:      r.state,
	}
}

// RingOf returns the ring assigned to a replica id (fleet for unknown
// ids, matching Manifest's conservative default).
func (r *Rollout) RingOf(id string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ring, ok := r.rings[id]; ok {
		return ring
	}
	return RingFleet
}

// ReplicaInfo is one replica's row in the rollout snapshot.
type ReplicaInfo struct {
	ReplicaID   string    `json:"replica_id"`
	Ring        string    `json:"ring"`
	Addr        string    `json:"addr,omitempty"`
	Stale       bool      `json:"stale"`
	LastSeen    time.Time `json:"last_seen"`
	Heartbeat   Heartbeat `json:"heartbeat"`
	BaselineP99 float64   `json:"baseline_p99_us,omitempty"`
}

// Snapshot is the /debug/rollout payload.
type Snapshot struct {
	State          string        `json:"state"`
	StableHash     string        `json:"stable_hash"`
	CandidateHash  string        `json:"candidate_hash,omitempty"`
	RollbackReason string        `json:"rollback_reason,omitempty"`
	StartedAt      time.Time     `json:"started_at,omitempty"`
	Rev            uint64        `json:"rev"`
	BundleCount    int           `json:"bundle_count"`
	Replicas       []ReplicaInfo `json:"replicas"`
	Config         struct {
		CanaryPercent float64 `json:"canary_percent"`
		MaxP99Ratio   float64 `json:"max_p99_ratio,omitempty"`
	} `json:"config"`
}

// Snapshot returns the full controller state for /debug/rollout.
func (r *Rollout) Snapshot() Snapshot {
	now := r.cfg.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		State:          r.state,
		StableHash:     r.stable,
		CandidateHash:  r.candidate,
		RollbackReason: r.reason,
		StartedAt:      r.started,
		Rev:            r.rev,
		BundleCount:    r.store.Len(),
	}
	snap.Config.CanaryPercent = r.cfg.CanaryPercent
	snap.Config.MaxP99Ratio = r.cfg.MaxP99Ratio
	cutoff := now.Add(-r.cfg.ReplicaTTL)
	ids := make([]string, 0, len(r.replicas))
	for id := range r.replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := r.replicas[id]
		snap.Replicas = append(snap.Replicas, ReplicaInfo{
			ReplicaID:   id,
			Ring:        r.rings[id],
			Addr:        st.hb.Addr,
			Stale:       st.lastSeen.Before(cutoff),
			LastSeen:    st.lastSeen,
			Heartbeat:   st.hb,
			BaselineP99: st.baselineP99,
		})
	}
	return snap
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
