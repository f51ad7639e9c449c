package registry

import "testing"

func TestGateJudge(t *testing.T) {
	g := Gate{MinAgreement: 0.9, MinSamples: 20}
	cases := []struct {
		name string
		ev   Evidence
		want Verdict
	}{
		{"no evidence is pending", Evidence{}, VerdictPending},
		{"thin evidence is pending even when it disagrees", Evidence{Samples: 19, Agreements: 0}, VerdictPending},
		{"low agreement fails", Evidence{Samples: 20, Agreements: 17}, VerdictFail},
		{"agreement just below the minimum fails", Evidence{Samples: 1000, Agreements: 899}, VerdictFail},
		{"agreement equal to the minimum passes", Evidence{Samples: 20, Agreements: 18}, VerdictPass},
		{"full agreement passes", Evidence{Samples: 50, Agreements: 50}, VerdictPass},
	}
	for _, tc := range cases {
		got, reason := g.Judge(tc.ev)
		if got != tc.want {
			t.Errorf("%s: Judge(%+v) = %s (%s), want %s", tc.name, tc.ev, got, reason, tc.want)
		}
		if reason == "" {
			t.Errorf("%s: Judge gave no reason", tc.name)
		}
	}
}

func TestEvidenceRate(t *testing.T) {
	if r := (Evidence{}).Rate(); r != 0 {
		t.Fatalf("empty evidence rate = %v, want 0", r)
	}
	if r := (Evidence{Samples: 4, Agreements: 3}).Rate(); r != 0.75 {
		t.Fatalf("rate = %v, want 0.75", r)
	}
}

func TestShadowReportEvidenceSumsCollectives(t *testing.T) {
	rep := ShadowReport{Collectives: map[string]ShadowCollective{
		"allgather": {Evidence: Evidence{Samples: 10, Agreements: 9}},
		"broadcast": {Evidence: Evidence{Samples: 5, Agreements: 1}},
	}}
	if got, want := rep.Evidence(), (Evidence{Samples: 15, Agreements: 10}); got != want {
		t.Fatalf("Evidence() = %+v, want %+v", got, want)
	}
}
