package wcg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/synth"
)

// checkAgainstReference fails unless deobfuscate and SniffBodyRedirects
// return exactly what the regexp-only reference returns for body.
func checkAgainstReference(t testing.TB, body string) {
	t.Helper()
	if got, want := string(deobfuscate([]byte(body))), refDeobfuscate(body); got != want {
		t.Fatalf("deobfuscate(%q)\n got %q\nwant %q", body, got, want)
	}
	got, want := SniffBodyRedirects([]byte(body)), refSniffBodyRedirects([]byte(body))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SniffBodyRedirects(%q)\n got %q\nwant %q", body, got, want)
	}
}

// sniffTokens is the alphabet of the random differential: every literal
// the sniffer anchors on, whole and cut short, in both cases, with the
// U+212A and U+017F look-alikes (?i) folds to k and s, and lone bytes.
var sniffTokens = []string{
	"String.fromCharCode(", "String.fromCharCode", "string.fromcharcode(", "104", "0065", "1114112", "55296", ",", ", ", ")",
	`\x`, `\x68`, `\x2`, `\x25`, `\X41`, "%", "%25", "%5C", "%5c", "x", "%68", "%4", "%C5%BF", "%3E", "%3c", "%22", "41", "6", "G",
	"<meta", "<META", "<Meta ", "<me", "http-equiv=", "HTTP-EQUIV=", `"refresh"`, "refresh", "refreſh", "REFRESH", "url=", "URL=", "content=", "0;",
	"<iframe", "<IFRAME ", "<ifra", "src=", "ſrc=", "SRC=", "\u212arc=", "http", "HTTP", "://a.b/c", "//h.k/p",
	"window.", "document.", "top.", "desktop.", "location", "LOCATION", "Location", "locatio", ".href", ".HREF", "\u212a", "K", "ſ", "k", "s",
	"=", " ", "\t", "\n", "\v", "\u00a0", "\u0085", `"`, "'", ">", "<", "/", ";", "\xff", "\xc5", "\xbf", "\xe2\x84", "é", "\x00",
}

// randomSniffBody strings together near-miss and matching renderings of
// the three patterns with token noise between them, then hides random
// stretches behind up to three layers of the three encodings.
func randomSniffBody(rng *rand.Rand) string {
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	noise := func() string {
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(sniffTokens[rng.Intn(len(sniffTokens))])
		}
		return sb.String()
	}
	target := func() string {
		return pick("http", "HTTP", "Http", "//", "", "ftp") + pick("://a.b/c", "://\u212a.ſ/", ":", "\u00a0", "\t", "") + noise()
	}
	var sb strings.Builder
	for n := 1 + rng.Intn(5); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			sb.WriteString(pick("<meta", "<META", "<MeTa", "<met") + pick(" ", "\n", "", "<meta ", noise()) +
				pick("http-equiv=", "HTTP-EQUIV=", "http-equiv") + pick(`"`, "'", "") + pick("refresh", "REFRESH", "Refreſh", "refre\u212ah", "refres") +
				pick(`"`, "'", "", " ") + pick(" content=", "", " x='0;", noise()) + pick("url=", "URL=", "url =", "") + target() + pick(">", `">`, " ", ""))
		case 1:
			sb.WriteString(pick("<iframe", "<IFRAME", "<iFrame", "<ifram") + pick(" ", "\t", "", noise()) +
				pick("src=", "SRC=", "ſrc=", "\u212arc=", "src =") + pick(`"`, "'", "", `''`) + target() + pick(">", `'>`, " ", ""))
		case 2:
			sb.WriteString(pick("window.", "document.", "top.", "desktop.", "Window.", "self.", "", "window") + pick("location", "LOCATION", "Location", "locatıon") +
				pick("", "", ".href", ".HREF", ".hash") + pick("", " ", "\n\t", "\v") + pick("=", "=", "==", "") + pick("", " ", "\f\r") +
				pick(`"`, "'", "") + target() + pick(`"`, "'", "", `";`))
		default:
			sb.WriteString(noise())
		}
	}
	body := sb.String()
	for layers := rng.Intn(4); layers > 0 && len(body) > 0; layers-- {
		from := rng.Intn(len(body))
		to := from + 1 + rng.Intn(min(len(body)-from, 6))
		var enc strings.Builder
		switch hidden := body[from:to]; rng.Intn(3) {
		case 0:
			for i := 0; i < len(hidden); i++ {
				fmt.Fprintf(&enc, pick("%%%02x", "%%%02X"), hidden[i])
			}
		case 1:
			for i := 0; i < len(hidden); i++ {
				fmt.Fprintf(&enc, `\x%02x`, hidden[i])
			}
		case 2:
			enc.WriteString("String.fromCharCode(")
			for i, r := range []rune(hidden) {
				if i > 0 {
					enc.WriteString(pick(",", ", ", " ,\n"))
				}
				fmt.Fprintf(&enc, pick("%d", "%04d"), r)
			}
			enc.WriteString(")")
		}
		body = body[:from] + enc.String() + body[to:]
	}
	return body
}

func TestSnifferMatchesReference(t *testing.T) {
	cases := map[string]string{
		"empty":                        "",
		"plain text":                   "nothing to see here",
		"stacked pct over hex":         `%5Cx68%5Cx69`,
		"stacked pct over pct":         `window.location="%25%32%35%2568ttp://h.io/"`,
		"five rounds deep":             `%2525252568`,
		"pct over fromCharCode":        `String.fromCharCode%28104,116%29`,
		"escape revealed same round":   `String.fromCharCode(92,120,54,56)String.fromCharCode(37, 54, 57)`,
		"hex reveals pct same round":   `\x2541\x25\x34\x31`,
		"pct reveals hex next round":   `%5cx41%5Cx4`,
		"high escapes are code points": `%ff\xC5\xbf%C5%BF`,
		"fromCharCode edge arguments":  `String.fromCharCode(0)String.fromCharCode(55296,1114111)String.fromCharCode(1114112)String.fromCharCode(00000000000000000000065)`,
		"fromCharCode bad arguments":   `String.fromCharCode(1 2)String.fromCharCode(,)String.fromCharCode(65,)String.fromCharCode( 65 ,	66 )String.fromCharCode()String.fromCharCode(99999999999999999999)`,
		"fromCharCode inside itself":   `String.fromCharCode(String.fromCharCode(104,105)`,
		"cut-off literals at the end":  `<meta http-equiv=refresh url=a> String.fromCharCode(104`,
		"cut-off escapes at the end":   `location.href="a" \x4`,
		"cut-off pct at the end":       `%4`,
		"cut-off tag at the end":       `<iframe src=http://a/> <ifram`,
		"cut-off meta at the end":      `<met`,
		"cut-off location at the end":  `window.locatio`,
		"mixed case tags":              `<MeTa HTTP-EQUIV="Refresh" CONTENT="0; URL=http://a.b/c"><IFRAME SRC='HTTP://x.y/z'>`,
		"long s in refresh and src":    `<meta http-equiv=refreſh url=http://a/><iframe ſrc=http://b/>`,
		"kelvin sign is no k":          "<meta http-equiv=refresh url=http://\u212a/><iframe \u212arc=http://b/ src=http://c/\u212a> window\u212a.location='a' <\u212ameta",
		"long s in the anchors":        `<meta http-equiv=refresh url=http://a/> window.locationſ="x" ſrc`,
		"two matches in one window":    `<meta http-equiv=refresh url=a <meta http-equiv=refresh url=b><iframe src=http://a <iframe src=http://b`,
		"meta url before http-equiv":   `<meta url=a http-equiv=refresh><meta http-equiv=refresh content=x>`,
		"meta spanning lines":          "<meta\nhttp-equiv='refresh'\ncontent='0;url=http://a/\tb'\n>",
		"tag window ends at gt":        `<meta http-equiv=refresh> url=http://a/ <iframe width=1> src=http://b/`,
		"iframe without http":          `<iframe src="/local"><iframe src=''http://a/>`,
		"target trimmed to nothing":    "<meta http-equiv=refresh url=\u00a0\t> <iframe src=http\u0085>",
		"window.location.href":         `window.location.href="http://a/"`,
		"top.location.href spaced":     "top.location.href \n=\t'http://a/'",
		"desktop.location":             `desktop.location="http://a/"`,
		"every alternative":            `window.location='a';document.location="b";location.href='c';top.location="d";Location.Href='e'`,
		"bare location is no match":    `location="http://a/"; self.location='b'`,
		"prefixed then href":           `document.location.href = "x" window.location ="y"`,
		"mismatched quotes":            `window.location="a'b"`,
		"unterminated quote":           `window.location="http://a/`,
		"unterminated then terminated": `window.location="a top.location='b'`,
		"empty quoted target":          `window.location=""; top.location='' ;location.href='x'`,
		"match resumes after quote":    `location.href='window.location="x"' top.location="y"`,
		"duplicates across patterns":   `<meta http-equiv=refresh url=http://a/><iframe src=http://a/>window.location="http://a/"`,
		"invalid utf-8":                "<meta\xff http-equiv=refresh\xc5 url=\xe2\x84http://a/\xff> window.location='\xff\xfe' %c5%bf\xc5",
		"lone long s bytes":            "<iframe \xc5src=http://a/ \xbfsrc=http://b/>",
		"nul bytes":                    "window.location\x00='a' <meta\x00http-equiv=refresh url=\x00>",
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, body) })
	}

	t.Run("random token strings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 30000; i++ {
			checkAgainstReference(t, randomSniffBody(rng))
		}
	})
}

// Every synth landing page hands the victim to its exploit host through
// an iframe, a third of them with the scheme percent-encoded; the sniffer
// must recover that one URL from each, as the reference does.
func TestSnifferFindsSynthLandingPages(t *testing.T) {
	plain, obfuscated := 0, 0
	for seed := int64(1); plain+obfuscated < 1000; seed++ {
		family := synth.Families[seed%int64(len(synth.Families))].Name
		ep := synth.GenerateInfection(family, time.Unix(1500000000, 0), rand.New(rand.NewSource(seed)))
		for _, tx := range ep.Txs {
			_, rest, ok := strings.Cut(string(tx.Body), `<iframe src="`)
			if !ok {
				continue
			}
			src, _, _ := strings.Cut(rest, `"`)
			want := strings.Replace(src, "%68%74%74%70", "http", 1)
			if want == src {
				plain++
			} else {
				obfuscated++
			}
			got := SniffBodyRedirects(tx.Body)
			if len(got) != 1 || got[0] != want || HostOfURL(got[0]) == "" {
				t.Fatalf("seed %d: sniffed %q from %q, want %q", seed, got, tx.Body, want)
			}
			checkAgainstReference(t, string(tx.Body))
		}
	}
	if plain < 100 || obfuscated < 100 {
		t.Fatalf("landing pages seen: %d plain, %d obfuscated; want at least 100 of each", plain, obfuscated)
	}
}

// The bodies of BenchmarkSniffBodyRedirects, shared with the allocation
// and linearity tests.
const sniffBodySize = 64 << 10

// fillerBody is what bench/ pads wire_mixed responses with: one byte
// repeated, holding none of the sniffer's literals.
func fillerBody() []byte { return bytes.Repeat([]byte{'x'}, sniffBodySize) }

// benignPageBody is an ordinary HTML page: meta tags that are no refresh,
// percent signs that are no escape (and two that are), the word
// "location" in prose and in script that assigns nothing, quotes, '<' and
// '=' throughout.
func benignPageBody() []byte {
	const head = `<!DOCTYPE html><html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1"><meta name="description" content="Store locations & opening hours">
<title>Our locations</title><link rel="stylesheet" href="/static/site.css?v=3">
<style>.hero{width:100%;max-width:960px;margin:0 auto}.col{float:left;width:33.3%}</style>
<script>var here = window.location.pathname; if (document.location.hash) { track(here); }</script></head><body>
`
	const block = `<div class="col"><h2>Branch <b>7</b></h2><p>Our new location opens at 9 &mdash; parking is 50% off on weekends,
and the <a href="/find%20us/map?city=Old%20Town">map</a> lists every location with its hours.</p>
<img src="/img/branch.png" alt="Shop front" style="width:100%"><table><tr><td>Mon&ndash;Fri</td><td>9 = open</td></tr></table></div>
`
	page := []byte(head)
	for len(page)+len(block) < sniffBodySize {
		page = append(page, block...)
	}
	return append(page, "</body></html>"...)
}

func landingPageBody(obfuscated bool) []byte {
	scheme := "http"
	if obfuscated {
		scheme = "%68%74%74%70"
	}
	return []byte(`<html><body>lorem<iframe src="` + scheme + `://exploit.evil.example/gate" width=1 height=1></iframe></body></html>`)
}

func TestSniffBenchmarkBodies(t *testing.T) {
	for _, body := range [][]byte{fillerBody(), benignPageBody()} {
		if got := SniffBodyRedirects(body); len(got) != 0 {
			t.Fatalf("benign %d-byte body yields redirects %q", len(body), got)
		}
		checkAgainstReference(t, string(body))
	}
	if page := benignPageBody(); len(page) < sniffBodySize*9/10 || bytes.Equal(deobfuscate(page), page) {
		t.Fatalf("benign page is %d bytes and must hold a real escape", len(page))
	}
	for _, obfuscated := range []bool{false, true} {
		got := SniffBodyRedirects(landingPageBody(obfuscated))
		if len(got) != 1 || got[0] != "http://exploit.evil.example/gate" {
			t.Fatalf("landing page (obfuscated=%v) yields %q", obfuscated, got)
		}
	}
}

// A body with no candidate, and one with candidates that all come to
// nothing, are sniffed without allocating: no copy, no lower-cased twin,
// no result containers.
func TestSniffNoAllocWhenNothingDecodes(t *testing.T) {
	nearMisses := bytes.Repeat([]byte(`width:100%; the location of <b>x</b> = "here" \xylophone String.fromCharCode `), sniffBodySize/80)
	for name, body := range map[string][]byte{"filler": fillerBody(), "near misses": nearMisses} {
		if got := SniffBodyRedirects(body); got != nil {
			t.Fatalf("%s: sniffed %q", name, got)
		}
		if allocs := testing.AllocsPerRun(10, func() { SniffBodyRedirects(body) }); allocs != 0 {
			t.Errorf("%s: %v allocations per sniff, want 0", name, allocs)
		}
	}
}

// fastest is the shortest of several timings of f, which is the one least
// disturbed by whatever else the machine is running.
func fastest(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 7; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Hostile bodies made of nothing but candidates must cost a bounded
// multiple of a body with none: each candidate is looked at once, with
// work bounded by its own window, and no window is scanned twice. A tag
// that is never closed makes the rest of the body its window, and when
// that window also holds the pattern's literal it is matched by regexp,
// once: the dearest body there is, and still cheaper than the reference's
// six passes over it.
func TestSniffHostileBodiesStayLinear(t *testing.T) {
	timed := func(sniff func([]byte) []string, body []byte) time.Duration {
		return fastest(func() { sniff(body) })
	}
	within := func(unit, what string, limit func(hostile []byte) time.Duration) {
		hostile := bytes.Repeat([]byte(unit), sniffBodySize/len(unit))
		var cost, most time.Duration
		for attempt := 0; attempt < 3; attempt++ { // a noisy neighbour can spoil an attempt
			most, cost = limit(hostile), timed(SniffBodyRedirects, hostile)
			if cost <= most {
				return
			}
		}
		t.Errorf("64 KiB of %q costs %v, more than %v, %s", unit, cost, most, what)
	}
	filler := fillerBody()
	for _, unit := range []string{"<meta", "<iframe", `location.href='`, `window.location = "`, "%4", `\x4`, "String.fromCharCode("} {
		within(unit, "20× a candidate-free body", func([]byte) time.Duration {
			return 20 * timed(SniffBodyRedirects, filler)
		})
	}
	for _, unit := range []string{"<meta url=", "<iframe http"} {
		within(unit, "the reference on the same body", func(hostile []byte) time.Duration {
			return timed(refSniffBodyRedirects, hostile)
		})
	}
}

var sniffSink []string

// BenchmarkSniffBodyRedirects runs the sniffer and the regexp-only
// reference over the same bodies in one process, so their ratio is free of
// machine and run: a candidate-free body, an ordinary page, and the synth
// landing page plain and percent-encoded.
func BenchmarkSniffBodyRedirects(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
	}{
		{"filler64k", fillerBody()},
		{"benign_page64k", benignPageBody()},
		{"landing_plain", landingPageBody(false)},
		{"landing_pct", landingPageBody(true)},
	}
	impls := []struct {
		name  string
		sniff func([]byte) []string
	}{{"new", SniffBodyRedirects}, {"reference", refSniffBodyRedirects}}
	for _, bb := range bodies {
		for _, impl := range impls {
			b.Run(bb.name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(bb.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sniffSink = impl.sniff(bb.body)
				}
			})
		}
	}
}
