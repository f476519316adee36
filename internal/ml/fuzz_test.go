package ml

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// FuzzLoadForest throws arbitrary bytes at the JSON importer and at the
// recursive oracle loader. The invariants: neither may panic; both must
// agree on accepting or rejecting the input; and any model that imports
// must score without panicking, bit-identically to the pointer walk — i.e.
// import-time validation is strong enough that nothing semantically broken
// reaches the serve path. The importer allocates at most 64 KiB + 128 B per
// input byte: no length field sizes an allocation. The constant also
// covers what the fuzz worker itself allocates during the call.
func FuzzLoadForest(f *testing.F) {
	valid, err := os.ReadFile("testdata/seed7.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"features":2,"trees":[{"nodes":[{"leaf":true,"p1":1}]}]}`))
	f.Add([]byte(`{"version":1,"features":2,"trees":[{"nodes":[{"f":9,"t":1},{"leaf":true},{"leaf":true}]}]}`))
	f.Add([]byte(`{"version":1,"trees":[{"nodes":[{"f":0,"t":1}]}]}`))
	f.Add([]byte(`{"version":1,"features":1,"trees":[{"nodes":[{"leaf":true,"p0":2,"p1":-1}]}]}`))
	f.Add([]byte(strings.Repeat(`{"f":0,"t":0.5},`, 64)))
	f.Add([]byte(`{"version":1,"features":1,"trees":[{"nodes":[` + strings.Repeat(`{},`, 1024) + `{}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ptr, perr := refLoadForest(bytes.NewReader(data))
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flat, ferr := LoadFlatForest(r)
		runtime.ReadMemStats(&after)
		// The densest node stream, `{},` per node, costs ~71 B a byte.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+128*len(data)); got > limit {
			t.Fatalf("importing %d bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("loaders disagree: recursive err %v, importer err %v", perr, ferr)
		}
		if perr != nil {
			return
		}
		x := probeFor(flat)
		ps := ptr.Score(x)
		fs := flat.Score(x)
		if math.Float64bits(ps) != math.Float64bits(fs) {
			t.Fatalf("loaded representations score differently: %v vs %v", ps, fs)
		}
		if math.IsNaN(ps) || ps < 0 || ps > 1 {
			t.Fatalf("validated model scored %v, outside [0, 1]", ps)
		}
	})
}
