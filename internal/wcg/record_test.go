package wcg

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// TestRecordStaysCompact pins the size of a Record. A cluster's history is
// a slice of them, so its size is most of what the on-the-wire stage
// allocates per benign transaction (benign_stream's alloc_kb_per_tx): a
// history of whole transactions cost 320 B an entry.
func TestRecordStaysCompact(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got > 96 {
		t.Fatalf("Record is %d bytes, want at most 96", got)
	}
}

// recordEdgeCases are transactions whose digest takes the less common
// branches: no Host (the server address names the node), a zoned IPv6
// server, an uncommon method, a server named like the victim, relative
// Location and Referer, unset times, mixed-case hosts, a sniffed body
// naming its own host, and a Flash version.
func recordEdgeCases() []httpstream.Transaction {
	noHost := newTx("", "/raw", 0).build()
	zoned := newTx("Link.Local", "/z", 100*time.Millisecond).build()
	zoned.ServerIP = netip.MustParseAddr("fe80::1%eth0")
	untimed := newTx("late.example", "/u", 0).build()
	untimed.ReqTime, untimed.RespTime = time.Time{}, time.Time{}
	noResp := newTx("silent.example", "/s", 2*time.Second).status(0).build()
	noResp.RespTime = time.Time{}
	return []httpstream.Transaction{
		newTx("Entry.Example", "/", 50*time.Millisecond).referer("http://search.example/q").
			hdr("X-Flash-Version", "11,2,202").hdr("DNT", "1").build(),
		noHost,
		zoned,
		untimed,
		noResp,
		newTx("entry.example", "/go", 200*time.Millisecond).status(302).location("/next").size(0).build(),
		newTx("entry.example", "/next", 250*time.Millisecond).referer("/relative").build(),
		newTx(victimIP.String(), "/self", 300*time.Millisecond).method("PROPFIND").build(),
		newTx("hop.example", "/p", 400*time.Millisecond).referer("http://entry.example/go").
			body(`<meta http-equiv="refresh" content="0;url=http://hop.example/x"><iframe src="http://Land.Example/f"></iframe>`).build(),
		newTx("land.example", "/f", 450*time.Millisecond).ctype("application/javascript").
			body(`window.location = "http://drop.example/a.exe";`).build(),
		newTx("drop.example", "/a.exe", 500*time.Millisecond).ctype("application/x-msdownload").size(90000).build(),
		newTx("drop.example", "/a.exe", 520*time.Millisecond).ctype("application/x-msdownload").size(90000).build(),
	}
}

// TestRecordBuilderMatchesRef holds FromTransactions, which digests each
// transaction into a Record once and builds from the records, to the
// whole-transaction builder it replaced: the same WCG, byte for byte, on
// synthetic episodes of every family and on the edge cases.
func TestRecordBuilderMatchesRef(t *testing.T) {
	cases := [][]httpstream.Transaction{anglerEpisode(), recordEdgeCases()}
	for _, seed := range []int64{1, 2, 3} {
		for _, ep := range synth.GenerateCorpus(synth.Config{Seed: seed, Infections: 12, Benign: 12}) {
			cases = append(cases, ep.Txs)
		}
	}
	for i, txs := range cases {
		got, want := jsonBytes(t, FromTransactions(txs)), jsonBytes(t, refFromTransactions(txs))
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d diverged\nrecords:      %s\ntransactions: %s", i, got, want)
		}
	}
}

// TestIncrementalRecordsMatchBatch: appending one cluster table's records
// in order grows the graph FromRecords builds over the same prefix.
func TestIncrementalRecordsMatchBatch(t *testing.T) {
	txs := sortedByReqTime(recordEdgeCases())
	tab := Table{Client: victimIP}
	ib := SeedIncrementalBuilder(&tab, nil, nil)
	var recs []Record
	var idxs []int
	for i := range txs {
		recs = append(recs, tab.Digest(&txs[i], KeysOf(&txs[i])))
		idxs = append(idxs, i)
		if !ib.AppendRecord(&recs[i]) {
			t.Fatalf("in-order record %d refused", i)
		}
		got, want := jsonBytes(t, ib.Finalize()), jsonBytes(t, FromRecords(&tab, recs, idxs))
		if !bytes.Equal(got, want) {
			t.Fatalf("prefix %d diverged\nincremental: %s\nbatch:       %s", i+1, got, want)
		}
	}
}

// domainHosts covers the shapes registeredDomain and topLevelDomain must
// agree with their label-splitting forms on.
var domainHosts = []string{
	"a.b.evil.com", "evil.com", "com", "", ".", "..", ".com", "a..b", "evil.com.", "a.b.",
	"10.1.2.3", "10.1.2", "300.1.2.3", "host1", "example.123", "1.2.3.4.5",
	"::1", "2001:db8::1", "fe80::1%eth0", "fe80::1%", "[::1]", "::ffff:10.0.0.1", "a:b",
}

func TestRegisteredDomainMatchesRef(t *testing.T) {
	for _, h := range domainHosts {
		if got, want := registeredDomain(h), refRegisteredDomain(h); got != want {
			t.Errorf("registeredDomain(%q) = %q, want %q", h, got, want)
		}
		if got, want := topLevelDomain(h), refTopLevelDomain(h); got != want {
			t.Errorf("topLevelDomain(%q) = %q, want %q", h, got, want)
		}
	}
}

// TestRegisteredDomainAllocs: the cross-domain check every redirect edge
// makes, and the TLD count of RedirectStats, allocate nothing for
// hostnames and address literals alike.
func TestRegisteredDomainAllocs(t *testing.T) {
	hosts := []string{"a.b.evil.com", "cb17.example", "com", "evil.com.", "example.123", "host1", "10.1.2.3", "2001:db8::1"}
	if n := testing.AllocsPerRun(100, func() {
		for _, h := range hosts {
			_ = registeredDomain(h)
			_ = topLevelDomain(h)
		}
	}); n != 0 {
		t.Fatalf("registeredDomain and topLevelDomain allocate %.1f objects per %d hosts, want 0", n, len(hosts))
	}
}
