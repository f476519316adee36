package wcg

import (
	"bytes"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// chainEpisode builds the shape of infection the on-the-wire stage
// watches longest: a search-engine click into a 3-hop 302 chain, an EXE
// from the last hop, then callbacks POSTs spread over hosts call-back
// servers named by IP (each contacted first in turn, then revisited
// round-robin; hosts must stay under 255). It has 4+callbacks
// transactions, all in request-time order.
func chainEpisode(callbacks, hosts int) []httpstream.Transaction {
	client := netip.MustParseAddr("10.20.30.40")
	start := time.Date(2016, 4, 2, 9, 30, 0, 0, time.UTC)
	ua := "Mozilla/5.0 (Windows NT 6.1; WOW64; Trident/7.0; rv:11.0) like Gecko"
	var txs []httpstream.Transaction
	add := func(at time.Duration, server netip.Addr, method, host, uri, referer string, status int, ctype, location string) *httpstream.Transaction {
		req, resp := http.Header{}, http.Header{}
		req.Set("User-Agent", ua)
		if referer != "" {
			req.Set("Referer", referer)
		}
		if location != "" {
			resp.Set("Location", location)
		}
		txs = append(txs, httpstream.Transaction{
			ClientIP: client, ServerIP: server,
			ClientPort: 50000, ServerPort: 80,
			Method: method, URI: uri, Host: host, ReqHdr: req, ReqTime: start.Add(at),
			StatusCode: status, RespHdr: resp, RespTime: start.Add(at + 40*time.Millisecond),
			ContentType: ctype, BodySize: 64,
		})
		return &txs[len(txs)-1]
	}
	hops := []string{"gate0.example", "gate1.example", "gate2.example", "drop.example"}
	referer := "http://www.bing.com/search?q=free+codecs"
	at := time.Duration(0)
	for h := 0; h < 3; h++ {
		uri := fmt.Sprintf("/gate.php?id=%d", h)
		tx := add(at, netip.AddrFrom4([4]byte{198, 18, 0, byte(1 + h)}), "GET", hops[h], uri, referer, 302, "", "http://"+hops[h+1]+"/gate.php")
		if h == 0 {
			tx.ReqHdr.Set("DNT", "1")
			tx.ReqHdr.Set("X-Flash-Version", "11,7,700,169")
		}
		referer = "http://" + hops[h] + uri
		at += 100 * time.Millisecond
	}
	add(at, netip.AddrFrom4([4]byte{198, 18, 0, 4}), "GET", hops[3], "/a1b2c3d4.exe", referer, 200, "application/x-msdownload", "")
	for k := 0; k < callbacks; k++ {
		at += 400 * time.Millisecond
		cnc := netip.AddrFrom4([4]byte{185, 7, 0, byte(1 + k%hosts)})
		add(at, cnc, "POST", cnc.String(), "/gate.php", "", 200, "text/plain", "")
	}
	return txs
}

// renderExports writes every export of each graph in graphs, one section
// per graph under a "== name ==" header: the WriteJSON line, the GraphML
// document and the DOT source.
func renderExports(t *testing.T, names []string, graphs []*WCG) (jsonOut, graphmlOut, dotOut []byte) {
	t.Helper()
	var js, gm, dot bytes.Buffer
	for i, w := range graphs {
		header := "== " + names[i] + " ==\n"
		js.WriteString(header)
		gm.WriteString(header)
		dot.WriteString(header)
		if err := w.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteGraphML(&gm); err != nil {
			t.Fatal(err)
		}
		dot.WriteString(w.DOT(names[i]))
	}
	return js.Bytes(), gm.Bytes(), dot.Bytes()
}

// TestExportsMatchGolden pins the bytes of all three exports for a fixed
// set of graphs: the synth corpus of seed 1 (20 infection and 20 benign
// episodes) and a hand-built redirect-chain episode with call-backs. A
// change to how the WCG is stored must leave every byte in place; a
// change to an export format rewrites testdata/exports on purpose, from
// renderExports.
func TestExportsMatchGolden(t *testing.T) {
	var names []string
	var graphs []*WCG
	for i, ep := range synth.GenerateCorpus(synth.Config{Seed: 1, Infections: 20, Benign: 20}) {
		names = append(names, fmt.Sprintf("synth %d %s", i, ep.Family))
		graphs = append(graphs, FromTransactions(ep.Txs))
	}
	names = append(names, "chain")
	graphs = append(graphs, FromTransactions(chainEpisode(12, 4)))

	js, gm, dot := renderExports(t, names, graphs)
	for _, f := range []struct {
		name string
		got  []byte
	}{{"wcg.jsonl", js}, {"wcg.graphml", gm}, {"wcg.dot", dot}} {
		path := filepath.Join("testdata", "exports", f.name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(f.got, want) {
			continue
		}
		got, wantLines := strings.SplitAfter(string(f.got), "\n"), strings.SplitAfter(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("%s:%d differs\ngot:  %s\nwant: %s", path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(got), len(wantLines))
	}
}
