package selector

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
)

// AppendJSON appends the compact JSON encoding of d to b without
// reflection. The bytes are exactly what encoding/json produces for the
// struct's tags: field order, omitempty, sorted feature keys, HTML-safe
// string escaping and the float formatting rule all match, and a NaN or
// infinite float is an error as there. FuzzDecisionJSON pins the equality.
func (d *Decision) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"time":`...)
	b, err := appendTime(b, d.Time)
	if err != nil {
		return nil, err
	}
	if d.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, d.RequestID)
	}
	b = append(b, `,"collective":`...)
	b = appendString(b, d.Collective)
	b = append(b, `,"features":`...)
	if b, err = appendFeatures(b, d.Features); err != nil {
		return nil, err
	}
	b = append(b, `,"algorithm":`...)
	b = appendString(b, d.Algorithm)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(d.Class), 10)
	b = append(b, `,"probs":`...)
	if d.Probs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range d.Probs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, p); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"votes":`...)
	if d.Votes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range d.Votes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"margin":`...)
	if b, err = appendFloat(b, d.Margin); err != nil {
		return nil, err
	}
	if d.LowMargin {
		b = append(b, `,"low_margin":true`...)
	}
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, d.LatencyNS, 10)
	if d.Generation != 0 {
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, d.Generation, 10)
	}
	if d.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}'), nil
}

// MarshalJSON routes every encoding/json use of a Decision through
// AppendJSON, so there is one encoder.
func (d Decision) MarshalJSON() ([]byte, error) {
	return d.AppendJSON(make([]byte, 0, 512))
}

// appendFeatures encodes the feature map with its keys sorted, as
// encoding/json does; the key slice lives on the stack for the usual
// handful of features.
func appendFeatures(b []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	var stack [32]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendFloat(b, m[k]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendString quotes s. Printable ASCII other than the characters
// encoding/json escapes is copied as is; any other string takes
// json.Marshal, which owns the escaping rules (control characters, HTML,
// invalid UTF-8, U+2028/U+2029).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat formats f as encoding/json does: 'f', or 'e' for magnitudes
// below 1e-6 or from 1e21 up, with a two-digit negative exponent trimmed
// (e-09 → e-9).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendTime quotes t in RFC 3339 with nanoseconds, as time.Time's
// MarshalJSON does, and rejects what it rejects: a year outside
// [0,9999] or a zone offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	n := len(b)
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	s := b[n+1:]
	badYear := s[4] != '-'
	z := s[len(s)-6:]
	badZone := s[len(s)-1] != 'Z' && ((z[0] >= '0' && z[0] <= '9') || 10*(z[1]-'0')+(z[2]-'0') >= 24)
	if badYear || badZone {
		_, err := t.MarshalJSON()
		return nil, err
	}
	return append(b, '"'), nil
}
