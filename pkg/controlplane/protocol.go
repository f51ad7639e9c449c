// Package controlplane is the fleet side of PML-MPI bundle distribution:
// a content-addressed bundle store keyed by the same SHA-256 generation
// hash the registry computes, a per-ring manifest replicas poll to learn
// the desired generation, heartbeat ingestion carrying each replica's
// serving state and model-health evidence, and a staged-rollout state
// machine (canary ring first, fleet on healthy heartbeats, auto-rollback
// on a replica's shadow-agreement rejection, drift, or latency).
//
// The protocol is pull-based and stateless on the wire: replicas poll
// GET /v1/manifest (cheap 304 via ETag in steady state), fetch missing
// content from GET /v1/bundles/{hash}, and report POST /v1/heartbeat.
// The control plane never dials a replica.
package controlplane

// Ring names. Every registered replica belongs to exactly one ring,
// assigned deterministically by the control plane: replica ids sort
// lexicographically and the first ceil(N * CanaryPercent / 100) (at least
// one) form the canary ring; the rest are the fleet ring.
const (
	RingCanary = "canary"
	RingFleet  = "fleet"
)

// Rollout states, as reported in the manifest and on /debug/rollout.
const (
	// StateIdle: no rollout has ever been started; every ring wants the
	// stable hash.
	StateIdle = "idle"
	// StateCanary: the candidate is desired on the canary ring only.
	StateCanary = "canary"
	// StateFleet: canary heartbeats were healthy; the candidate is desired
	// fleet-wide but not every replica has confirmed serving it yet.
	StateFleet = "fleet"
	// StateDone: every replica confirmed the candidate; it is the new
	// stable hash.
	StateDone = "done"
	// StateRolledBack: the candidate was withdrawn; every ring wants the
	// previous stable hash again.
	StateRolledBack = "rolled_back"
)

// Candidate statuses a replica reports for the bundle it most recently
// staged from the control plane.
const (
	// CandidateNone: no candidate in flight.
	CandidateNone = "none"
	// CandidateSoaking: staged and shadow-evaluating against live traffic.
	CandidateSoaking = "soaking"
	// CandidatePromoted: the candidate passed the local soak gate and is
	// now the active generation.
	CandidatePromoted = "promoted"
	// CandidateRejected: the replica's soak gate failed the candidate's
	// shadow agreement; the candidate was never promoted. This is the only
	// agreement verdict the rollout controller acts on.
	CandidateRejected = "rejected"
)

// Manifest is the GET /v1/manifest response: the desired serving state for
// one ring. Replicas poll it (If-None-Match with the previous ETag makes
// the steady state a body-less 304) and reconcile their registry toward
// DesiredHash.
type Manifest struct {
	// Ring is the polling replica's assigned ring (observers without a
	// replica id see the fleet ring).
	Ring string `json:"ring"`
	// DesiredHash is the hex SHA-256 of the bundle this ring should serve.
	// Empty until a bundle has been uploaded or seeded.
	DesiredHash string `json:"desired_hash"`
	// DesiredGeneration is the control plane's monotonic upload sequence
	// number for DesiredHash — a fleet-wide ordering hint, distinct from
	// each replica's local registry generation ids.
	DesiredGeneration uint64 `json:"desired_generation"`
	// StableHash is the last fleet-wide accepted bundle.
	StableHash string `json:"stable_hash"`
	// RolloutState is the rollout state machine's current state.
	RolloutState string `json:"rollout_state"`
	// PollSeconds is the control plane's advisory poll interval.
	PollSeconds float64 `json:"poll_seconds,omitempty"`
}

// Heartbeat is the POST /v1/heartbeat request body: one replica's serving
// state plus the evidence the rollout controller gates on.
type Heartbeat struct {
	// ReplicaID uniquely names the replica; ring assignment and heartbeat
	// bookkeeping key on it.
	ReplicaID string `json:"replica_id"`
	// Addr is the replica's advertised base URL (for operators and
	// gateway discovery); optional.
	Addr string `json:"addr,omitempty"`
	// Ring echoes the ring from the last manifest the replica saw.
	Ring string `json:"ring,omitempty"`

	// ActiveGeneration / ActiveHash identify the local registry generation
	// currently serving Select traffic.
	ActiveGeneration uint64 `json:"active_generation"`
	ActiveHash       string `json:"active_hash"`

	// CandidateHash / CandidateStatus / CandidateSamples /
	// CandidateAgreement describe the most recent control-plane candidate
	// the replica staged: its shadow-evaluation evidence while soaking and
	// the verdict (promoted / rejected).
	CandidateHash      string  `json:"candidate_hash,omitempty"`
	CandidateStatus    string  `json:"candidate_status"`
	CandidateSamples   uint64  `json:"candidate_samples,omitempty"`
	CandidateAgreement float64 `json:"candidate_agreement,omitempty"`

	// DriftStatus / LowMarginRate mirror the model-health observatory's
	// summary ("ok", "warn", "alert", "collecting", "no_reference").
	DriftStatus   string  `json:"drift_status,omitempty"`
	LowMarginRate float64 `json:"low_margin_rate,omitempty"`
	// SelectP99US is the replica's rolling select latency p99 in
	// microseconds (0 when unknown / idle).
	SelectP99US float64 `json:"select_p99_us,omitempty"`
	// UptimeSeconds is the replica process uptime.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
}

// HeartbeatAck is the POST /v1/heartbeat response.
type HeartbeatAck struct {
	// Ring is the control plane's current ring assignment for the replica
	// (authoritative; may differ from the echoed ring right after the
	// replica set changes).
	Ring string `json:"ring"`
	// RolloutState lets a replica log state transitions without an extra
	// manifest poll.
	RolloutState string `json:"rollout_state"`
}
