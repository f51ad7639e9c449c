package registry

import "fmt"

// Evidence is the shadow-agreement evidence gathered for one candidate:
// how many live decisions were mirrored to it and how many of those it
// decided the same way as the serving model.
type Evidence struct {
	Samples    uint64 `json:"samples"`
	Agreements uint64 `json:"agreements"`
}

// Rate is the agreement rate, 0 without samples.
func (e Evidence) Rate() float64 {
	if e.Samples == 0 {
		return 0
	}
	return float64(e.Agreements) / float64(e.Samples)
}

// Verdict is a Gate's judgement of a candidate's evidence.
type Verdict string

const (
	// VerdictPending: too few samples to judge yet.
	VerdictPending Verdict = "pending"
	// VerdictPass: enough samples, agreement at or above the minimum.
	VerdictPass Verdict = "pass"
	// VerdictFail: enough samples, agreement strictly below the minimum.
	VerdictFail Verdict = "fail"
)

// Gate is the shadow-agreement promotion gate — the one place a candidate's
// agreement is compared against a threshold. The replica soak, the retrain
// judge and (through the replica's rejection heartbeat) the fleet rollout
// all decide through it.
type Gate struct {
	// MinAgreement is the lowest agreement rate that passes.
	MinAgreement float64
	// MinSamples is the evidence floor: below it the verdict is pending.
	MinSamples uint64
}

// DefaultGate is the gate used wherever no thresholds are configured.
var DefaultGate = Gate{MinAgreement: 0.9, MinSamples: 20}

// Judge returns the verdict on e and a human-readable reason.
func (g Gate) Judge(e Evidence) (Verdict, string) {
	if e.Samples < g.MinSamples {
		return VerdictPending, fmt.Sprintf("%d/%d shadow samples", e.Samples, g.MinSamples)
	}
	if rate := e.Rate(); rate < g.MinAgreement {
		return VerdictFail, fmt.Sprintf("shadow agreement %.3f below %.3f over %d samples",
			rate, g.MinAgreement, e.Samples)
	}
	return VerdictPass, fmt.Sprintf("shadow agreement %.3f at least %.3f over %d samples",
		e.Rate(), g.MinAgreement, e.Samples)
}
