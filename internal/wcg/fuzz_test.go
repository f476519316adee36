package wcg

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzDeobfuscate: the decoder must terminate and never panic on arbitrary
// script text, must decode it exactly as the regexp-only reference, and
// must allocate at most 64 KiB + 8 B per input byte.
func FuzzDeobfuscate(f *testing.F) {
	f.Add(`String.fromCharCode(104,116,116,112)`)
	f.Add(`\x68\x74%74%70`)
	f.Add(`%5Cx68`)
	f.Add(`String.fromCharCode(`)
	f.Add(`String.fromCharCode(-1,99999999999999999999)`)
	f.Add(`String.fromCharCode(92,120,54,56)%2525\x2541%C5%BF`)
	f.Add(`String.fromCharCode(65, 0066,)String.fromCharCode(55296 ,1114111)`)
	f.Add(`String.fromCharCode(` + strings.Repeat(`1,`, 1024) + `1)`)
	f.Fuzz(func(t *testing.T, body string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := string(deobfuscate([]byte(body)))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(body)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(body), got, limit)
		}
		if want := refDeobfuscate(body); out != want {
			t.Fatalf("deobfuscate(%q)\n got %q\nwant %q", body, out, want)
		}
		// Decoding only ever shrinks or preserves escape sequences; a
		// pathological blow-up would indicate a decode loop bug.
		if len(out) > 4*len(body)+16 {
			t.Fatalf("deobfuscation grew %d -> %d bytes", len(body), len(out))
		}
	})
}

// FuzzSniffBodyRedirects: sniffing arbitrary HTML must not panic, every
// extracted URL must be non-empty, the URLs must be exactly those the
// regexp-only reference extracts, in its order, and the sniffer must
// allocate at most 64 KiB + 32 B per input byte.
func FuzzSniffBodyRedirects(f *testing.F) {
	f.Add([]byte(`<meta http-equiv="refresh" content="0; url=http://a.b/c">`))
	f.Add([]byte(`<iframe src="http://x.y/z">`))
	f.Add([]byte(`window.location="http://q.r/s"`))
	f.Add([]byte(``))
	f.Add([]byte(`<<<>>>"'`))
	f.Add([]byte("<META http-equiv=refre\u017fh url=a <meta http-equiv='refresh' URL=\u00a0b\t><IFRAME \u017frc='HTTP://c' src=http://\u212a"))
	f.Add([]byte(`desktop.location = "a";window.location.href='%68ttp://b';top.location="c`))
	f.Add([]byte(`<iframe src=String.fromCharCode(104,116,116,112)\x3a//d>location.href=''e'`))
	f.Add([]byte(strings.Repeat(`<iframe src="http://a.b/c">`, 256)))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := SniffBodyRedirects(body)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+32*len(body)); got > limit {
			t.Fatalf("sniffing %d bytes allocated %d, want at most %d", len(body), got, limit)
		}
		for _, u := range got {
			if u == "" {
				t.Fatal("empty redirect target extracted")
			}
		}
		if want := refSniffBodyRedirects(body); !reflect.DeepEqual(got, want) {
			t.Fatalf("SniffBodyRedirects(%q)\n got %q\nwant %q", body, got, want)
		}
	})
}
