package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

func TestWriteJSONAnswers500WhenEncodingFails(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var e map[string]string
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" {
		t.Fatalf("status %d body %q, want 500 with a JSON error", rec.Code, rec.Body.String())
	}
}

// The typed sub-batch body must put the same bytes on the wire as the
// generic map it replaced.
func TestBatchBodyEncodesLikeGenericMap(t *testing.T) {
	sub := []selector.BatchRequest{
		{Collective: "alltoall", Features: map[string]float64{"ppn": 48, "log2_msg_size": 22}},
		{Collective: "a<b", Features: nil},
	}
	typed, err := json.Marshal(batchBody{Requests: sub})
	if err != nil {
		t.Fatal(err)
	}
	generic, _ := json.Marshal(map[string]any{"requests": sub})
	if !bytes.Equal(typed, generic) {
		t.Fatalf("typed body %s, generic %s", typed, generic)
	}
}
