package selector

import (
	"github.com/pml-mpi/pmlmpi/pkg/bundle"
)

// Source supplies the selector's active model. The registry implements it
// for hot-swappable serving; Static wraps a fixed bundle for tests and
// single-model deployments.
type Source interface {
	// Active returns the bundle currently serving traffic and its
	// generation id. It sits on the Select hot path, so implementations
	// must be cheap — one atomic load, no locks. A nil bundle means no
	// model is currently active; Select fails fast in that case.
	Active() (*bundle.Bundle, uint64)
	// Subscribe registers fn to run after every swap of the active
	// generation, with the new active bundle and its generation id. fn runs
	// synchronously on the promoting goroutine, after the new generation is
	// visible to Active, and must not call back into the Source.
	Subscribe(fn func(b *bundle.Bundle, gen uint64))
}

// staticSource is a Source whose bundle never changes.
type staticSource struct{ b *bundle.Bundle }

// Static wraps a fixed bundle as a Source. Its generation id is 0 and it
// never notifies subscribers.
func Static(b *bundle.Bundle) Source { return staticSource{b: b} }

func (s staticSource) Active() (*bundle.Bundle, uint64)       { return s.b, 0 }
func (s staticSource) Subscribe(func(*bundle.Bundle, uint64)) {}

// ShadowSink receives completed live decisions so a staged candidate model
// can be evaluated against the same traffic off the response path. The
// registry's Shadow implements it. Offer must be cheap when shadowing is
// idle (no candidate staged or fraction zero) and must never block: the
// selector calls it on the Select hot path, including cache hits.
//
// The features map is only guaranteed valid for the duration of the call;
// implementations that retain it must copy.
type ShadowSink interface {
	Offer(collective string, features map[string]float64, algorithm string, class int, latencyNS int64)
}
