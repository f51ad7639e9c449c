package controlplane

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWriteJSONAnswers500WhenEncodingFails(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var e map[string]string
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" {
		t.Fatalf("status %d body %q, want 500 with a JSON error", rec.Code, rec.Body.String())
	}
}
