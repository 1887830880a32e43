package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestHistogramJSONRoundTrip verifies that a marshal/unmarshal cycle
// reproduces the histogram exactly — the property the on-disk result
// store depends on.
func TestHistogramJSONRoundTrip(t *testing.T) {
	cases := map[string]*Histogram{
		"empty": NewHistogram("empty"),
		"zeros": func() *Histogram {
			h := NewHistogram("zeros")
			h.AddN(0, 7)
			return h
		}(),
		"wide": func() *Histogram {
			h := NewHistogram("wide")
			for _, v := range []int64{1, 2, 3, 1023, 1024, 1 << 40, 1<<62 - 1} {
				h.Add(v)
			}
			h.AddN(4096, 1000)
			return h
		}(),
		"unnamed": func() *Histogram {
			h := &Histogram{}
			h.Add(17)
			return h
		}(),
	}
	for name, h := range cases {
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got := NewHistogram("overwritten")
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(h, got) {
			t.Errorf("%s: round trip diverged:\n  in  %#v\n  out %#v", name, h, got)
		}
		// The statistical surface must survive too, not just DeepEqual.
		if h.FractionBelow(1024) != got.FractionBelow(1024) || h.Percentile(99) != got.Percentile(99) {
			t.Errorf("%s: derived statistics diverged after round trip", name)
		}
	}
}

// TestHistogramJSONRejectsBadBuckets ensures corrupted bucket indexes
// fail decoding loudly instead of clipping silently.
func TestHistogramJSONRejectsBadBuckets(t *testing.T) {
	for _, bad := range []string{
		`{"Buckets":[{"I":65,"N":1}],"Total":1}`,
		`{"Buckets":[{"I":-1,"N":1}],"Total":1}`,
	} {
		h := &Histogram{}
		if err := json.Unmarshal([]byte(bad), h); err == nil {
			t.Errorf("decode %s: want error, got nil", bad)
		}
	}
}
