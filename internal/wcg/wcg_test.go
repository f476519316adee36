package wcg

import (
	"encoding/json"
	"encoding/xml"
	"net/http"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dynaminer/internal/httpstream"
)

var (
	victimIP = netip.MustParseAddr("10.0.0.5")
	t0       = time.Date(2015, 12, 21, 10, 0, 0, 0, time.UTC)
)

// txb is a fluent builder for test transactions.
type txb struct{ t httpstream.Transaction }

func newTx(host, uri string, at time.Duration) *txb {
	return &txb{t: httpstream.Transaction{
		ClientIP: victimIP, ServerIP: netip.MustParseAddr("203.0.113.1"),
		Method: "GET", URI: uri, Host: host,
		ReqHdr: http.Header{}, RespHdr: http.Header{},
		ReqTime: t0.Add(at), RespTime: t0.Add(at + 20*time.Millisecond),
		StatusCode: 200, ContentType: "text/html", BodySize: 1024,
	}}
}

func (b *txb) method(m string) *txb          { b.t.Method = m; return b }
func (b *txb) status(c int) *txb             { b.t.StatusCode = c; return b }
func (b *txb) ctype(ct string) *txb          { b.t.ContentType = ct; return b }
func (b *txb) size(n int) *txb               { b.t.BodySize = n; return b }
func (b *txb) referer(r string) *txb         { b.t.ReqHdr.Set("Referer", r); return b }
func (b *txb) location(l string) *txb        { b.t.RespHdr.Set("Location", l); return b }
func (b *txb) body(s string) *txb            { b.t.Body = []byte(s); return b }
func (b *txb) hdr(k, v string) *txb          { b.t.ReqHdr.Set(k, v); return b }
func (b *txb) build() httpstream.Transaction { return b.t }

// nodeByHost returns w's node for host, folding case as node identity
// does, or nil.
func nodeByHost(w *WCG, host string) *Node {
	for i := range w.Nodes {
		if w.Host(i) == strings.ToLower(host) {
			return &w.Nodes[i]
		}
	}
	return nil
}

// TestEdgeStaysCompact pins the size of an Edge. The graph stores edges
// by value, and a growing Edges slice copies every edge it holds, so this
// bound is what holds the bytes a watched graph allocates per transaction
// (watch_chain's alloc_kb_per_tx, seed 1): over pointer edges it read
// +13.6 % at 152 B and +4.4 % at 96 B, and a 48 B edge reads ~2 % above a
// 40 B one, which append's size classes round to the same slabs.
func TestEdgeStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size > 40 {
		t.Fatalf("Edge is %d bytes, want <= 40", size)
	}
}

// TestNodeStaysCompact pins the size of a Node, which the graph also
// stores by value: its payload counts are 64 of its bytes.
func TestNodeStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 112 {
		t.Fatalf("Node is %d bytes, want <= 112", size)
	}
}

// TestRetainedTypesHoldNoPointer pins that the per-transaction state a
// watched cluster retains — its history's Records and its graph's Edges
// and Nodes — holds no pointer, so the GC never scans it.
func TestRetainedTypesHoldNoPointer(t *testing.T) {
	for _, v := range []any{Record{}, Edge{}, Node{}} {
		typ := reflect.TypeOf(v)
		if path, ok := pointerIn(typ); ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first field of typ that is or holds a
// pointer.
func pointerIn(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if path, ok := pointerIn(f.Type); ok {
				return strings.TrimSuffix(f.Name+"."+path, "."), true
			}
		}
		return "", false
	case reflect.Array:
		return pointerIn(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	}
	return "", true // pointers, strings, slices, maps, interfaces, channels, funcs
}

func TestClassifyPayload(t *testing.T) {
	cases := []struct {
		uri, ct string
		want    PayloadClass
	}{
		{"/a.exe", "", PayloadEXE},
		{"/a.exe?x=1", "text/html", PayloadEXE}, // extension beats content type
		{"/x.jar", "", PayloadJAR},
		{"/y.swf", "", PayloadSWF},
		{"/z.xap", "", PayloadXAP},
		{"/doc.pdf", "", PayloadPDF},
		{"/file.locky", "", PayloadCrypt},
		{"/file.cerber", "", PayloadCrypt},
		{"/app.dmg", "", PayloadDMG},
		{"/page.html", "", PayloadHTML},
		{"/s.js", "", PayloadJS},
		{"/i.png", "", PayloadImage},
		{"/a.zip", "", PayloadArchive},
		{"/api", "application/json", PayloadJSON},
		{"/bin", "application/x-msdownload", PayloadEXE},
		{"/flash", "application/x-shockwave-flash", PayloadSWF},
		{"/", "text/html; charset=utf-8", PayloadHTML},
		{"/", "", PayloadHTML}, // bare page fetch
		{"/mystery.qqq", "application/weird", PayloadOther},
	}
	for _, tc := range cases {
		if got := ClassifyPayload(tc.uri, tc.ct); got != tc.want {
			t.Errorf("ClassifyPayload(%q,%q) = %v, want %v", tc.uri, tc.ct, got, tc.want)
		}
	}
}

func TestExploitTypes(t *testing.T) {
	for _, p := range []PayloadClass{PayloadPDF, PayloadEXE, PayloadJAR, PayloadSWF, PayloadXAP, PayloadDMG, PayloadCrypt} {
		if !p.IsExploitType() {
			t.Errorf("%v must be an exploit type", p)
		}
	}
	for _, p := range []PayloadClass{PayloadHTML, PayloadJS, PayloadImage, PayloadNone, PayloadJSON} {
		if p.IsExploitType() {
			t.Errorf("%v must not be an exploit type", p)
		}
	}
}

func TestHostOfURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://evil.com/landing?id=1", "evil.com"},
		{"https://a.b.co.uk/x", "a.b.co.uk"},
		{"//cdn.example.com/lib.js", "cdn.example.com"},
		{"/relative/path", ""},
		{"", ""},
		{"http://host.com", "host.com"},
		{"http://host.com:8080/x", "host.com"},
		{"bare-host.net/p", "bare-host.net"},
		{"http://EVIL.Example/x", "evil.example"}, // DNS names fold case
		{"HTTPS://MiXeD.CoM", "mixed.com"},
	}
	for _, tc := range cases {
		if got := HostOfURL(tc.in); got != tc.want {
			t.Errorf("HostOfURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHostOfURLAuthority pins the authority forms a Location or Referer
// can carry beyond host[:port]. Cutting at the first ':' gave "[2001" for
// every IPv6 literal, so two IPv6 hosts sharing a first group became one
// WCG node, and gave "user" for a URL with userinfo.
func TestHostOfURLAuthority(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://[2001:db8::1]:8080/", "2001:db8::1"},
		{"http://[2001:db8::2]/x", "2001:db8::2"},
		{"//[2001:DB8::A]/lib.js", "2001:db8::a"},
		{"http://[::1]", "::1"},
		{"http://[2001:db8::1", "2001:db8::1"}, // unterminated bracket
		{"http://user:pw@host.example/", "host.example"},
		{"http://user@Host.Example:8080/p", "host.example"},
		{"http://a@b:c@evil.example/", "evil.example"}, // up to the last '@'
		{"http://user:pw@[2001:db8::3]:443/", "2001:db8::3"},
		{"http://host.example/path@elsewhere", "host.example"},
		{"http://host.example?next=a@b", "host.example"},
		{"http://host.example#frag@x", "host.example"},
		{"user:pw@bare.example/p", "bare.example"},
	}
	for _, tc := range cases {
		if got := HostOfURL(tc.in); got != tc.want {
			t.Errorf("HostOfURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHostCaseFolding(t *testing.T) {
	// Host, Referer, and Location headers that disagree on case must all
	// resolve to one lowercase node per DNS name; otherwise referrer
	// linkage and redirect edges split and the WCG fragments.
	txs := []httpstream.Transaction{
		newTx("Mixed.Example", "/", 0).build(),
		newTx("mixed.EXAMPLE", "/next", 100*time.Millisecond).
			referer("http://MIXED.example/").build(),
		newTx("hop.example", "/r", 200*time.Millisecond).
			status(302).location("http://TARGET.example/x").size(0).build(),
		newTx("target.EXAMPLE", "/x", 300*time.Millisecond).
			referer("http://hop.EXAMPLE/r").build(),
	}
	w := FromTransactions(txs)
	// victim + mixed.example + hop.example + target.example.
	if w.Order() != 4 {
		for _, n := range w.Nodes {
			t.Logf("node %d: %s", n.ID, w.Host(n.ID))
		}
		t.Fatalf("order = %d, want 4 (case variants must merge)", w.Order())
	}
	for _, host := range []string{"mixed.example", "hop.example", "target.example"} {
		if nodeByHost(w, host) == nil {
			t.Fatalf("node %q missing", host)
		}
	}
	// The mixed-case Location must still produce the hop->target redirect.
	found := false
	for _, e := range w.Edges {
		if e.Kind == EdgeRedirect && w.Host(int(e.From)) == "hop.example" && w.Host(int(e.To)) == "target.example" {
			found = true
		}
	}
	if !found {
		t.Fatal("redirect edge lost to host-case mismatch")
	}
}

func TestRegisteredDomainAndTLD(t *testing.T) {
	if registeredDomain("a.b.evil.com") != "evil.com" {
		t.Fatal("registeredDomain wrong")
	}
	if registeredDomain("10.1.2.3") != "10.1.2.3" {
		t.Fatal("IP registeredDomain wrong")
	}
	if topLevelDomain("x.evil.ru") != "ru" {
		t.Fatal("tld wrong")
	}
	if topLevelDomain("10.0.0.1") != "ip" {
		t.Fatal("IP tld wrong")
	}
}

func TestDeobfuscate(t *testing.T) {
	in := `var u=String.fromCharCode(104,116,116,112);`
	if got := string(deobfuscate([]byte(in))); !strings.Contains(got, "http") {
		t.Fatalf("fromCharCode not decoded: %q", got)
	}
	if got := string(deobfuscate([]byte(`\x68\x74\x74\x70`))); got != "http" {
		t.Fatalf("hex not decoded: %q", got)
	}
	if got := string(deobfuscate([]byte("%68%74%74%70"))); got != "http" {
		t.Fatalf("pct not decoded: %q", got)
	}
	// Stacked: percent-encoding of hex escapes.
	stacked := `%5Cx68%5Cx69`
	if got := string(deobfuscate([]byte(stacked))); got != "hi" {
		t.Fatalf("stacked not decoded: %q", got)
	}
	// Invalid charcodes stay intact.
	bad := `String.fromCharCode(9999999999)`
	if got := string(deobfuscate([]byte(bad))); got != bad {
		t.Fatalf("invalid charcode mangled: %q", got)
	}
}

func TestSniffBodyRedirects(t *testing.T) {
	body := `<html><head>
<meta http-equiv="refresh" content="0; url=http://landing.evil.com/gate">
</head><body>
<iframe src="http://exploit.bad.ru/ek" width=1 height=1></iframe>
<script>window.location="http://next.hop.net/x";</script>
</body></html>`
	got := SniffBodyRedirects([]byte(body))
	want := map[string]bool{
		"http://landing.evil.com/gate": true,
		"http://exploit.bad.ru/ek":     true,
		"http://next.hop.net/x":        true,
	}
	if len(got) != 3 {
		t.Fatalf("sniffed %d redirects: %v", len(got), got)
	}
	for _, u := range got {
		if !want[u] {
			t.Errorf("unexpected redirect %q", u)
		}
	}
	// Obfuscated JS location.
	obf := `<script>window.location="%68%74%74%70://hidden.evil.io/p";</script>`
	got = SniffBodyRedirects([]byte(obf))
	if len(got) != 1 || got[0] != "http://hidden.evil.io/p" {
		t.Fatalf("obfuscated sniff = %v", got)
	}
	if SniffBodyRedirects(nil) != nil {
		t.Fatal("nil body must yield nil")
	}
}

// anglerEpisode models the paper's Figure 6: bing.com origin, compromised
// site A, landing page B, exploit server C serving Flash, then CryptoWall
// callbacks to D, E, F.
func anglerEpisode() []httpstream.Transaction {
	return []httpstream.Transaction{
		newTx("compromisedA.com", "/blog/post", 0).
			referer("http://bing.com/search?q=soccer").hdr("DNT", "1").build(),
		newTx("compromisedA.com", "/blog/style.css", 300*time.Millisecond).
			ctype("text/css").size(400).build(),
		newTx("landingB.net", "/gate.php?id=77", 900*time.Millisecond).
			referer("http://compromisedA.com/blog/post").
			body(`<iframe src="http://exploitC.ru/flash"></iframe>`).build(),
		newTx("exploitC.ru", "/flash", 1500*time.Millisecond).
			referer("http://landingB.net/gate.php?id=77").
			hdr("X-Flash-Version", "18,0,0,232").
			status(302).location("http://exploitC.ru/payload.swf").size(0).build(),
		newTx("exploitC.ru", "/payload.swf", 1800*time.Millisecond).
			ctype("application/x-shockwave-flash").size(91000).build(),
		newTx("cncD.com", "/g.php", 4*time.Second).method("POST").size(20).ctype("text/plain").build(),
		newTx("cncE.com", "/g.php", 5*time.Second).method("POST").size(20).ctype("text/plain").build(),
		newTx("cncF.com", "/g.php", 6*time.Second).method("POST").status(404).size(0).build(),
	}
}

func TestFromTransactionsAngler(t *testing.T) {
	w := FromTransactions(anglerEpisode())

	// Nodes: victim + bing origin + A + B + C + D + E + F = 8 (Figure 6).
	if w.Order() != 8 {
		for _, n := range w.Nodes {
			t.Logf("node %d: %s (%s)", n.ID, w.Host(n.ID), n.Type)
		}
		t.Fatalf("order = %d, want 8", w.Order())
	}
	if !w.OriginKnown || w.OriginHost != "bing.com" {
		t.Fatalf("origin = %q known=%v", w.OriginHost, w.OriginKnown)
	}
	if !w.DNT {
		t.Fatal("DNT must be set")
	}
	if w.XFlashVersion != "18,0,0,232" {
		t.Fatalf("x-flash = %q", w.XFlashVersion)
	}

	// Exploit server must be classified malicious.
	if n := nodeByHost(w, "exploitC.ru"); n == nil || n.Type != NodeMalicious {
		t.Fatalf("exploitC.ru type = %v", n)
	}
	if n := nodeByHost(w, victimIP.String()); n == nil || n.Type != NodeVictim {
		t.Fatal("victim node wrong")
	}
	if n := nodeByHost(w, "bing.com"); n == nil || n.Type != NodeOrigin {
		t.Fatal("origin node wrong")
	}

	// Stage assignment: callbacks after the SWF download are post-download.
	var postPosts int
	for _, e := range w.Edges {
		if e.Kind == EdgeRequest && e.Stage == StagePostDownload && w.Method(&e) == "POST" {
			postPosts++
		}
	}
	if postPosts != 3 {
		t.Fatalf("post-download POSTs = %d, want 3", postPosts)
	}

	s := w.Summarize()
	if !s.HasCallback {
		t.Fatal("callback must be detected")
	}
	if s.DownloadedExploits != 1 {
		t.Fatalf("exploit downloads = %d, want 1", s.DownloadedExploits)
	}
	if s.PayloadCounts[PayloadSWF] != 1 {
		t.Fatalf("swf count = %d", s.PayloadCounts[PayloadSWF])
	}
	if s.GETs != 5 || s.POSTs != 3 {
		t.Fatalf("methods: GET=%d POST=%d", s.GETs, s.POSTs)
	}
	if s.HTTP30X != 1 || s.HTTP40X != 1 {
		t.Fatalf("codes: 30x=%d 40x=%d", s.HTTP30X, s.HTTP40X)
	}
	if s.Redirects.TotalRedirects < 3 {
		t.Fatalf("redirects = %d, want >= 3", s.Redirects.TotalRedirects)
	}
	if !s.XFlashVersionSet || !s.DNT {
		t.Fatal("summary header flags wrong")
	}
	if s.Duration <= 0 {
		t.Fatal("duration must be positive")
	}
	if s.AvgInterTransact <= 0 {
		t.Fatal("inter-transaction time must be positive")
	}
}

func TestStagesBeforeDownloadArePre(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	for _, e := range w.Edges {
		if et := Time(e.Time); et.Before(t0.Add(1800*time.Millisecond)) && e.Stage != StagePreDownload {
			t.Fatalf("edge at %v staged %v, want pre-download", et.Sub(t0), e.Stage)
		}
	}
}

func TestNoDownloadAllPre(t *testing.T) {
	txs := []httpstream.Transaction{
		newTx("news.com", "/", 0).build(),
		newTx("news.com", "/story", time.Second).method("POST").build(),
	}
	w := FromTransactions(txs)
	for _, e := range w.Edges {
		if e.Stage != StagePreDownload {
			t.Fatalf("stage = %v, want pre-download everywhere", e.Stage)
		}
	}
	s := w.Summarize()
	if s.HasCallback || s.PostDownloadEdges != 0 {
		t.Fatal("no-download conversation must have no post-download dynamics")
	}
}

func TestEmptyTransactions(t *testing.T) {
	w := FromTransactions(nil)
	if w.Order() != 0 || w.Size() != 0 {
		t.Fatal("empty input must give empty WCG")
	}
	s := w.Summarize()
	if s.Order != 0 || s.UniqueHosts != 0 {
		t.Fatalf("summary of empty WCG: %+v", s)
	}
}

func TestUnknownOriginAddsNoNode(t *testing.T) {
	txs := []httpstream.Transaction{newTx("direct.com", "/x", 0).build()}
	w := FromTransactions(txs)
	if w.OriginKnown || w.OriginHost != "" {
		t.Fatal("origin must be unknown")
	}
	for _, n := range w.Nodes {
		if n.Type == NodeOrigin {
			t.Fatal("unknown origin must not add a marker node")
		}
	}
	if w.Order() != 2 { // victim + direct.com only
		t.Fatalf("order = %d, want 2", w.Order())
	}
}

func TestRedirectChains(t *testing.T) {
	// A -> B -> C plus D -> E: two chains, longest 2 hops.
	txs := []httpstream.Transaction{
		newTx("a.com", "/1", 0).status(302).location("http://b.com/2").size(0).build(),
		newTx("b.com", "/2", 200*time.Millisecond).status(302).location("http://c.com/3").size(0).build(),
		newTx("c.com", "/3", 400*time.Millisecond).build(),
		newTx("d.com", "/x", 2*time.Second).status(301).location("http://e.com/y").size(0).build(),
		newTx("e.com", "/y", 2200*time.Millisecond).build(),
	}
	w := FromTransactions(txs)
	chains := w.RedirectChains()
	maxHops := 0
	for _, c := range chains {
		if c.Hops() > maxHops {
			maxHops = c.Hops()
		}
	}
	if maxHops != 2 {
		t.Fatalf("max hops = %d, want 2 (chains=%v)", maxHops, chains)
	}
	st := w.RedirectStats()
	if st.MaxChainLen != 2 {
		t.Fatalf("MaxChainLen = %d, want 2", st.MaxChainLen)
	}
	if st.TotalRedirects < 3 {
		t.Fatalf("TotalRedirects = %d, want >= 3", st.TotalRedirects)
	}
	if st.CrossDomainCount < 3 {
		t.Fatalf("CrossDomainCount = %d", st.CrossDomainCount)
	}
	if st.TLDDiversity < 1 {
		t.Fatal("TLD diversity must be positive")
	}
	if st.AvgRedirectDelay <= 0 {
		t.Fatal("avg redirect delay must be positive for chained redirects")
	}
}

func TestGraphProjection(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	g := w.Graph()
	if g.N() != w.Order() {
		t.Fatalf("graph N = %d, want %d", g.N(), w.Order())
	}
	if g.M() != w.Size() {
		t.Fatalf("graph M = %d, want %d", g.M(), w.Size())
	}
	// Cached: same pointer on second call.
	if w.Graph() != g {
		t.Fatal("graph must be cached")
	}
}

func TestDOT(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	dot := w.DOT("angler")
	// Node hosts are lowercased at construction (DNS case folding).
	for _, want := range []string{"digraph wcg", "bing.com", "exploitc.ru", "redir", "salmon", "lightgreen"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestStageAndKindStrings(t *testing.T) {
	if StagePreDownload.String() != "pre-download" || StagePostDownload.String() != "post-download" {
		t.Fatal("stage strings wrong")
	}
	if EdgeRequest.String() != "req" || EdgeRedirect.String() != "redir" {
		t.Fatal("edge kind strings wrong")
	}
	if NodeMalicious.String() != "malicious" || NodeType(99).String() != "unknown" {
		t.Fatal("node type strings wrong")
	}
	if Stage(9).String() != "unknown" || EdgeKind(9).String() != "unknown" {
		t.Fatal("fallback strings wrong")
	}
	if PayloadClass(99).String() != "unknown" || PayloadEXE.String() != "exe" {
		t.Fatal("payload strings wrong")
	}
}

func TestSubresourceRefererNotARedirect(t *testing.T) {
	// An image loaded from a CDN with a cross-host referrer must not create
	// a redirect edge; a navigated HTML document must.
	txs := []httpstream.Transaction{
		newTx("site.com", "/", 0).build(),
		newTx("cdn.net", "/logo.png", 100*time.Millisecond).
			ctype("image/png").referer("http://site.com/").build(),
		newTx("partner.org", "/landing", 200*time.Millisecond).
			referer("http://site.com/").build(),
	}
	w := FromTransactions(txs)
	redirTargets := make(map[string]bool)
	for _, e := range w.Edges {
		if e.Kind == EdgeRedirect {
			redirTargets[w.Host(int(e.To))] = true
		}
	}
	if redirTargets["cdn.net"] {
		t.Fatal("image subresource created a redirect edge")
	}
	if !redirTargets["partner.org"] {
		t.Fatal("document navigation missing redirect edge")
	}
}

func TestWriteJSON(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	var buf strings.Builder
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	nodes, ok := decoded["nodes"].([]any)
	if !ok || len(nodes) != w.Order() {
		t.Fatalf("nodes = %v", decoded["nodes"])
	}
	edges, ok := decoded["edges"].([]any)
	if !ok || len(edges) != w.Size() {
		t.Fatalf("edges wrong")
	}
	if decoded["originKnown"] != true || decoded["originHost"] != "bing.com" {
		t.Fatal("origin metadata missing from JSON")
	}
	first := nodes[0].(map[string]any)
	if first["type"] != "victim" {
		t.Fatalf("first node = %v", first)
	}
}

// TestWriteJSONOmitsZeroEdgeTime pins the export of an unstamped edge: it
// carries no time field, never the zero time's year 1, while stamped edges
// keep theirs.
func TestWriteJSONOmitsZeroEdgeTime(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	w.Edges[0].Time = NoTime
	var buf strings.Builder
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Edges []map[string]any `json:"edges"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if ts, ok := decoded.Edges[0]["time"]; ok {
		t.Fatalf("unstamped edge exported time %q, want no time field", ts)
	}
	if _, ok := decoded.Edges[1]["time"]; !ok {
		t.Fatal("stamped edge exported no time")
	}
}

func TestRedirectLoopHandled(t *testing.T) {
	// A <-> B redirect loop must not hang chain reconstruction and must
	// produce finite chains.
	txs := []httpstream.Transaction{
		newTx("a.com", "/1", 0).status(302).location("http://b.com/2").size(0).build(),
		newTx("b.com", "/2", 100*time.Millisecond).status(302).location("http://a.com/1").size(0).build(),
		newTx("a.com", "/1", 200*time.Millisecond).status(302).location("http://b.com/2").size(0).build(),
		newTx("b.com", "/2", 300*time.Millisecond).status(302).location("http://a.com/1").size(0).build(),
	}
	w := FromTransactions(txs)
	chains := w.RedirectChains()
	totalHops := 0
	for _, c := range chains {
		totalHops += c.Hops()
	}
	st := w.RedirectStats()
	if totalHops != st.TotalRedirects {
		t.Fatalf("chain hops %d != redirect edges %d", totalHops, st.TotalRedirects)
	}
	if st.MaxChainLen < 2 {
		t.Fatalf("loop chain length = %d", st.MaxChainLen)
	}
}

func TestSelfRedirectIgnored(t *testing.T) {
	// A host redirecting to itself must not create a self-loop edge.
	txs := []httpstream.Transaction{
		newTx("self.com", "/a", 0).status(302).location("http://self.com/b").size(0).build(),
		newTx("self.com", "/b", 100*time.Millisecond).build(),
	}
	w := FromTransactions(txs)
	for _, e := range w.Edges {
		if e.Kind == EdgeRedirect && e.From == e.To {
			t.Fatal("self redirect edge created")
		}
	}
	if w.RedirectStats().TotalRedirects != 0 {
		t.Fatalf("redirects = %d, want 0 for same-host redirect", w.RedirectStats().TotalRedirects)
	}
}

func TestDuplicateRedirectDeduped(t *testing.T) {
	// The same Location hop twice within a second counts once.
	txs := []httpstream.Transaction{
		newTx("x.com", "/r", 0).status(302).location("http://y.com/t").size(0).build(),
		newTx("x.com", "/r", 200*time.Millisecond).status(302).location("http://y.com/t").size(0).build(),
	}
	w := FromTransactions(txs)
	if got := w.RedirectStats().TotalRedirects; got != 1 {
		t.Fatalf("redirects = %d, want 1 after dedup", got)
	}
}

func TestWriteGraphML(t *testing.T) {
	w := FromTransactions(anglerEpisode())
	var buf strings.Builder
	if err := w.WriteGraphML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<graphml", `edgedefault="directed"`, "bing.com", "malicious", "post-download"} {
		if !strings.Contains(out, want) {
			t.Fatalf("graphml missing %q", want)
		}
	}
	// Well-formed XML.
	var probe struct {
		XMLName xml.Name `xml:"graphml"`
	}
	if err := xml.Unmarshal([]byte(out), &probe); err != nil {
		t.Fatalf("invalid XML: %v", err)
	}
}
