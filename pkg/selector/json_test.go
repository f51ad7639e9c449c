package selector

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// plainDecision drops Decision's methods, so json.Marshal of it is the
// reflection encoding of the struct tags: the reference AppendJSON must
// reproduce byte for byte, whatever fields the struct grows.
type plainDecision Decision

// checkDecisionJSON asserts AppendJSON, and MarshalJSON through
// json.Marshal, produce exactly the reflection encoding of d, or fail
// exactly when it fails.
func checkDecisionJSON(t *testing.T, d *Decision) {
	t.Helper()
	want, wantErr := json.Marshal((*plainDecision)(d))
	got, gotErr := d.AppendJSON([]byte("prefix"))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error = %v, encoding/json error = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if _, err := json.Marshal(d); err == nil {
			t.Fatalf("json.Marshal succeeded where encoding/json fails with %v", wantErr)
		}
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant prefix%s", got, want)
	}
	viaMarshal, err := json.Marshal(d)
	if err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal via MarshalJSON = %s, %v\nwant %s", viaMarshal, err, want)
	}
}

// Shape bits for FuzzDecisionJSON: which collections are nil or empty.
const (
	shapeNilFeatures = 1 << iota
	shapeEmptyFeatures
	shapeNilProbs
	shapeEmptyProbs
	shapeNilVotes
	shapeEmptyVotes
)

func FuzzDecisionJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(int64(1714564800), int64(123456789), int32(0), "req-1", "alltoall", "ppn", 48.0, "log2_msg_size", 22.0,
		"pairwise", 1, 0.94, 0.03, 94, 0.91, false, int64(12345), uint64(0), false, uint8(0))
	f.Add(int64(0), int64(0), int32(3600), "", "", `a"b`, 0.0, "<&>", negZero,
		"", 0, 1e-7, 1e21, 0, 0.0, true, int64(0), uint64(7), true, uint8(shapeNilFeatures|shapeNilProbs|shapeNilVotes))
	f.Add(int64(0), int64(0), int32(0), "", "", "", 0.0, "", 0.0,
		"", 0, 0.0, 0.0, 0, 0.0, false, int64(0), uint64(0), false, uint8(shapeEmptyFeatures))
	f.Add(int64(-62135596800), int64(1), int32(-19800), "\x01\t\n", "é", " ", 5e-324, "\xff", 1e-6,
		"a\\b", -3, 9.99e20, -1e-300, -1, 1e300, true, int64(-1), uint64(math.MaxUint64), false, uint8(shapeEmptyProbs|shapeEmptyVotes))
	f.Add(int64(253402300800), int64(0), int32(0), "r", "c", "x", math.NaN(), "y", 1.0,
		"a", 0, 0.5, 0.5, 1, 0.0, false, int64(1), uint64(1), false, uint8(0))
	f.Add(int64(1), int64(0), int32(86400), "r", "c", "x", math.Inf(-1), "y", 1.0,
		"a", 0, 0.5, math.Inf(1), 1, 0.0, false, int64(1), uint64(1), false, uint8(0))
	f.Fuzz(func(t *testing.T, sec, nsec int64, zoneOffset int32, reqID, collective, k1 string, v1 float64, k2 string, v2 float64,
		algorithm string, class int, p0, p1 float64, vote int, margin float64, lowMargin bool, latency int64, gen uint64, cached bool, shape uint8) {
		d := &Decision{
			Time:       time.Unix(sec, nsec).In(time.FixedZone("", int(zoneOffset))),
			RequestID:  reqID,
			Collective: collective,
			Features:   map[string]float64{k1: v1, k2: v2},
			Algorithm:  algorithm,
			Class:      class,
			Probs:      []float64{p0, p1},
			Votes:      []int{vote, -vote},
			Margin:     margin,
			LowMargin:  lowMargin,
			LatencyNS:  latency,
			Generation: gen,
			Cached:     cached,
		}
		switch {
		case shape&shapeNilFeatures != 0:
			d.Features = nil
		case shape&shapeEmptyFeatures != 0:
			d.Features = map[string]float64{}
		}
		switch {
		case shape&shapeNilProbs != 0:
			d.Probs = nil
		case shape&shapeEmptyProbs != 0:
			d.Probs = []float64{}
		}
		switch {
		case shape&shapeNilVotes != 0:
			d.Votes = nil
		case shape&shapeEmptyVotes != 0:
			d.Votes = []int{}
		}
		checkDecisionJSON(t, d)
	})
}

// TestDecisionJSONCoversEveryField sets every field of Decision to a
// non-zero value by reflection, so a field added without AppendJSON
// support fails here even if no other test sets it.
func TestDecisionJSONCoversEveryField(t *testing.T) {
	var d Decision
	v := reflect.ValueOf(&d).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Set(nonZero(t, v.Type().Field(i).Type))
	}
	checkDecisionJSON(t, &d)

	b, err := d.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != v.NumField() {
		t.Fatalf("encoded %d keys for %d fields: %v", len(keys), v.NumField(), keys)
	}
}

// nonZero builds a non-zero value of type typ, with strings that need
// escaping and floats on both sides of the exponent-format thresholds.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	t.Helper()
	if typ == reflect.TypeOf(time.Time{}) {
		return reflect.ValueOf(time.Date(2024, 5, 1, 12, 0, 0, 120, time.FixedZone("", 5*3600+1800)))
	}
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1e-7)
	case reflect.String:
		v.SetString(`x<&"é` + "\n")
	case reflect.Slice:
		v = reflect.MakeSlice(typ, 2, 2)
		v.Index(0).Set(nonZero(t, typ.Elem()))
		v.Index(1).Set(nonZero(t, typ.Elem()))
	case reflect.Map:
		v = reflect.MakeMap(typ)
		v.SetMapIndex(reflect.ValueOf("z<"), nonZero(t, typ.Elem()))
		v.SetMapIndex(nonZero(t, typ.Key()), reflect.ValueOf(1e21).Convert(typ.Elem()))
	default:
		t.Fatalf("nonZero: no value for %s; extend the test and AppendJSON together", typ)
	}
	return v
}

func BenchmarkDecisionAppendJSON(b *testing.B) {
	d := &Decision{
		Time:       time.Now(),
		RequestID:  "req-0000000001",
		Collective: "alltoall",
		Features:   map[string]float64{"log2_msg_size": 22, "ppn": 48, "num_nodes": 32, "mem_bw_gbs": 204.8, "thread_count": 96},
		Algorithm:  "pairwise",
		Class:      1,
		Probs:      []float64{0.01, 0.94, 0.03, 0, 0.02},
		Votes:      []int{1, 94, 3, 0, 2},
		Margin:     0.91,
		LatencyNS:  22800,
		Generation: 1,
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			buf, _ = d.AppendJSON(buf[:0])
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal((*plainDecision)(d))
		}
	})
}
