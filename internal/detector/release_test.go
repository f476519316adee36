package detector

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
	"weak"

	"dynaminer/internal/httpstream"
)

// landingPage is an HTML page on a.evil whose script redirects to b.evil,
// padded so the body is an allocation of its own. It is on the heap, as
// everything a real capture delivers is.
//
//go:noinline
func landingPage() *httpstream.Transaction {
	tx := mkTx("a.evil", "/", "GET", 200, "text/html", 0, "", 0)
	tx.Body = []byte(`<html><script>window.location = "http://b.evil/x";</script>` + strings.Repeat(" ", 4096) + `</html>`)
	tx.BodySize = len(tx.Body)
	tx.RespHdr.Set("Set-Cookie", "sid=7f; Path=/")
	return &tx
}

// mapObject is the runtime object behind a map value.
func mapObject(h map[string][]string) *byte { return (*byte)(*(*unsafe.Pointer)(unsafe.Pointer(&h))) }

// feedLanding processes the landing page and returns weak pointers to its
// body and both header maps.
//
//go:noinline
func feedLanding(e *Engine) (body, req, resp weak.Pointer[byte]) {
	tx := landingPage()
	body, req, resp = weak.Make(&tx.Body[0]), weak.Make(mapObject(tx.ReqHdr)), weak.Make(mapObject(tx.RespHdr))
	e.Process(*tx)
	return body, req, resp
}

// TestProcessReleasesTransaction: a cluster's history keeps records, not
// transactions. Once Process returns, the engine holds neither the body
// it sniffed nor the header maps it read, and the cluster still arms and
// alerts from its records: the sniffed redirect is the third piece of
// redirect evidence the clue needs, and the landing page is in the
// alert's WCG. The alert in turn holds the records it needs, not the
// cluster: once the cluster is evicted, it is collected while the alert
// still builds its graph.
func TestProcessReleasesTransaction(t *testing.T) {
	e := New(Config{Shards: 1, RedirectThreshold: 3}, constScorer(0.9))
	body, req, resp := feedLanding(e)
	runtime.GC()
	if body.Value() != nil || req.Value() != nil || resp.Value() != nil {
		t.Fatalf("after Process and a collection the engine still holds the body (%v), request header (%v) or response header (%v)",
			body.Value() != nil, req.Value() != nil, resp.Value() != nil)
	}
	hop := func(host, next string, at time.Duration) httpstream.Transaction {
		tx := redirectTx(host, next, at)
		tx.ReqHdr.Set("Referer", "http://a.evil/")
		return tx
	}
	alerts := e.ProcessAll([]httpstream.Transaction{
		hop("b.evil", "c.evil", 100*time.Millisecond),
		hop("c.evil", "d.evil", 200*time.Millisecond),
		mkTx("d.evil", "/drop.exe", "GET", 200, "application/x-msdownload", 90000, "http://c.evil/r", 300*time.Millisecond),
	})
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (stats %+v)", len(alerts), e.Stats())
	}
	cluster := weak.Make(e.shards[0].st.clusters[0])
	if n := e.evictIdle(t0.Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d clusters, want 1", n)
	}
	runtime.GC()
	if cluster.Value() != nil {
		t.Fatal("the alert keeps its evicted cluster alive")
	}
	g := alerts[0].Graph()
	for _, n := range g.Nodes {
		if g.Host(n.ID) == "a.evil" {
			return
		}
	}
	t.Fatalf("the landing page is not in the alert's WCG: %+v", g.Nodes)
}
