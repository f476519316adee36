package wcg

import (
	"time"

	"dynaminer/internal/httpstream"
)

// redirectClickGap separates automatic redirections (tens to hundreds of
// milliseconds after the referring page) from human link-clicks (seconds).
const redirectClickGap = 2 * time.Second

// Builder constructs a WCG incrementally from a time-ordered stream of
// Records (Section III-B). The on-the-wire stage grows potential-infection
// WCGs one transaction at a time; feeding records in request-time order
// makes the incremental result identical to the batch FromRecords.
type Builder struct {
	w            *WCG
	t            *Table
	victim       int
	origin       int
	started      bool
	originLinked bool
	hosts        []hostSlot // by table index
	redirSeen    map[redirKey]struct{}
}

// hostSlot is what the builder knows of one table string: its node, and
// when it last served the victim.
type hostSlot struct {
	node   int32 // node ID + 1; 0 while the string has no node
	served bool  // last holds the host's last activity
	last   int64
}

type redirKey struct {
	from, to int32
	sec      int64
}

// NewBuilder returns an empty Builder over a table of its own, for Add.
func NewBuilder() *Builder { return NewTableBuilder(&Table{}) }

// NewTableBuilder returns an empty Builder over the records of t, whose
// Client is the victim.
func NewTableBuilder(t *Table) *Builder {
	return &Builder{
		w:         newWCG(t),
		t:         t,
		victim:    -1,
		origin:    -1,
		redirSeen: make(map[redirKey]struct{}),
	}
}

// FromTransactions constructs a fully annotated WCG from an HTTP
// transaction stream: nodes from unique hosts, an origin node from the
// enticement referrer, request/response edges per transaction, redirect
// edges inferred from Location headers, fast cross-host document
// referrers, and (de-obfuscated) meta/JavaScript redirects in bodies,
// followed by conversation-stage assignment and node role classification.
// Each transaction is digested into a Record once and the record added.
func FromTransactions(txs []httpstream.Transaction) *WCG {
	var t Table
	recs := make([]Record, len(txs))
	idxs := make([]int, len(txs))
	first := -1
	for i := range txs {
		recs[i] = t.Digest(&txs[i], KeysOf(&txs[i]))
		idxs[i] = i
		if first < 0 || recs[i].ReqTime < recs[first].ReqTime {
			first = i
		}
	}
	if first >= 0 {
		t.Client = txs[first].ClientIP
	}
	return FromRecords(&t, recs, idxs)
}

// FromRecords builds the finalized WCG of the records recs[i], i in idxs,
// digested against t: they are added in request-time order, ties in idxs
// order (SeedIncrementalBuilder).
func FromRecords(t *Table, recs []Record, idxs []int) *WCG {
	return SeedIncrementalBuilder(t, recs, idxs).Finalize()
}

// addRedirect inserts a deduplicated redirect edge at ts.
func (b *Builder) addRedirect(from, to int, ts int64) {
	if from == to {
		return
	}
	k := redirKey{int32(from), int32(to), Time(ts).Unix()}
	if _, ok := b.redirSeen[k]; ok {
		return
	}
	b.redirSeen[k] = struct{}{}
	w := b.w
	w.addEdge(Edge{
		From: int32(from), To: int32(to), Kind: EdgeRedirect, Time: ts,
		CrossDomain: registeredDomain(w.Host(from)) != registeredDomain(w.Host(to)),
	})
}

// slot returns the builder's slot for table index i.
func (b *Builder) slot(i int32) *hostSlot {
	for len(b.hosts) <= int(i) {
		b.hosts = append(b.hosts, hostSlot{})
	}
	return &b.hosts[i]
}

// node returns the node of table string i, creating it as typ if it does
// not exist yet; the victim's own address string is the victim node. An
// existing node's type is never downgraded.
func (b *Builder) node(i int32, typ NodeType) int {
	s := b.slot(i)
	if s.node == 0 {
		if b.t.Names[i] != b.w.victim {
			id := b.w.addNode(i, typ)
			s.node = int32(id + 1)
			return id
		}
		s.node = int32(b.victim + 1)
	}
	return int(s.node - 1)
}

// server returns the node of r's host, as node does, which takes r's
// server address if it had none. The victim's address is the table's
// Client.
func (b *Builder) server(r *Record) int {
	id := b.node(r.Host, NodeRemote)
	if n := &b.w.Nodes[id]; n.ipKind == 0 && n.Host != VictimHost {
		n.ip, n.ipKind, n.ipZone = r.ServerIP, r.ServerKind, r.ServerZone
	}
	return id
}

// Add digests tx into the builder's table and adds its record.
func (b *Builder) Add(tx httpstream.Transaction) {
	r := b.digest(&tx)
	b.AddRecord(&r)
}

// digest digests tx into the builder's table. Before the first record is
// added, tx names the table's client.
func (b *Builder) digest(tx *httpstream.Transaction) Record {
	if !b.started {
		b.t.Client = tx.ClientIP
	}
	return b.t.Digest(tx, KeysOf(tx))
}

// AddRecord ingests one record of the builder's table. Records must
// arrive in request-time order for stage assignment to match the batch
// construction.
func (b *Builder) AddRecord(r *Record) {
	w, t := b.w, b.t
	if !b.started {
		b.started = true
		w.victim = t.Client.String()
		b.victim = w.addNode(VictimHost, NodeVictim)
		// Origin node: the referrer of the first transaction names the
		// enticement source. An unknown origin is recorded as metadata
		// only ("marked empty"); adding an isolated marker node would skew
		// every distance-based measure of origin-less conversations.
		if r.Ref >= 0 {
			w.OriginKnown = true
			w.OriginHost = t.Names[r.Ref]
			b.origin = b.node(r.Ref, NodeOrigin)
		}
	}

	server := b.server(r)
	w.addURI(server, r.URIHash)

	if r.Flags&RecDNT != 0 {
		w.DNT = true
	}
	if r.Flash >= 0 && w.XFlashVersion == "" {
		w.XFlashVersion = t.Names[r.Flash]
	}

	w.addEdge(Edge{
		From: int32(b.victim), To: int32(server), Kind: EdgeRequest, Time: r.ReqTime,
		Method: w.methodCode(r.Method), URILen: r.URILen, Referred: r.Flags&RecReferred != 0,
	})
	redirect := r.Flags&RecRedirect != 0
	var payload PayloadClass
	if r.Status > 0 {
		payload = r.PayloadClass()
		if r.BodySize == 0 && !redirect {
			payload = PayloadNone
		}
		w.addEdge(Edge{
			From: int32(server), To: int32(b.victim), Kind: EdgeResponse, Time: r.RespTime,
			StatusCode: r.Status, PayloadType: payload, PayloadSize: r.BodySize,
		})
		if payload != PayloadNone {
			w.Nodes[server].Payloads[payload]++
			w.Nodes[b.victim].Payloads[payload]++
		}
	}

	// Redirect edge from a Location header.
	if redirect {
		to := b.node(r.Loc, NodeIntermediary)
		b.addRedirect(server, to, r.RespTime)
	}

	// Referrer-based navigation: a document fetched from host B with a
	// referrer on host A evidences A chaining the victim to B. Two gates
	// keep human browsing out: only document payloads count (subresources
	// naturally carry cross-host referrers), and the navigation must
	// follow the referring host's last activity within redirectClickGap —
	// automatic redirections fire in milliseconds, link-clicks take
	// seconds (Section III-C's delay insight).
	if r.Ref >= 0 && r.Ref != r.Host && t.Names[r.Ref] != w.victim {
		if payload == PayloadHTML || (r.Status >= 300 && r.Status < 400) {
			if s := b.slot(r.Ref); s.served && Sub(r.ReqTime, s.last) <= redirectClickGap {
				from := b.node(r.Ref, NodeIntermediary)
				b.addRedirect(from, server, r.ReqTime)
			}
		}
	}
	s := b.slot(r.Host)
	s.served, s.last = true, r.RespTime
	if r.RespTime == NoTime {
		s.last = r.ReqTime
	}

	// Meta/JavaScript/iframe redirects hidden in document bodies, sniffed
	// once, when the record was digested.
	if payload.CarriesRedirects() {
		for _, th := range t.Sniffs[r.SniffLo:r.SniffHi] {
			if th == r.Host {
				continue
			}
			to := b.node(th, NodeIntermediary)
			b.addRedirect(server, to, r.RespTime)
		}
	}

	// Connect a known origin to the first contacted server. An unknown
	// ("empty") origin stays metadata: fabricating a hop for it would
	// credit every conversation with a redirect it never had.
	if b.origin >= 0 && !b.originLinked && server != b.origin {
		b.originLinked = true
		b.addRedirect(b.origin, server, r.ReqTime)
	}
}

// WCG finalizes the annotations (conversation stages, node roles) and
// returns the graph. The Builder remains usable: further Add calls grow
// the same graph and a later WCG call re-finalizes it.
func (b *Builder) WCG() *WCG {
	b.w.assignStages()
	if b.victim >= 0 {
		b.w.classifyNodes(b.victim, b.origin)
	}
	return b.w
}

// Size returns the number of transactions' worth of edges added so far.
func (b *Builder) Size() int { return b.w.Size() }

// assignStages implements the Section III-C staging rules. Download events
// are 2xx responses carrying a known exploit payload; edges before the
// first such event are pre-download, POSTs after the last such event to
// hosts that served no exploit payload (with 200 or 40x responses) are
// post-download, and everything else is download stage. Conversations with
// no exploit download stay entirely in the pre-download stage.
func (w *WCG) assignStages() {
	tFirst, tLast := int64(NoTime), int64(NoTime)
	servedExploit := make(map[int32]bool)
	for _, e := range w.Edges {
		if e.Kind == EdgeResponse && e.StatusCode >= 200 && e.StatusCode < 300 && e.PayloadType.IsExploitType() {
			if tFirst == NoTime || e.Time < tFirst {
				tFirst = e.Time
			}
			tLast = max(tLast, e.Time)
			servedExploit[e.From] = true
		}
	}
	if tFirst == NoTime {
		for i := range w.Edges {
			w.Edges[i].Stage = StagePreDownload
		}
		return
	}
	for i := range w.Edges {
		e := &w.Edges[i]
		switch {
		case e.Time < tFirst:
			e.Stage = StagePreDownload
		case e.Time > tLast:
			e.Stage = w.lateStage(e, servedExploit)
		default:
			e.Stage = StageDownload
		}
	}
}

// lateStage decides the stage of an edge occurring after the last exploit
// download: POST dialogues with fresh hosts are post-download C&C traffic.
func (w *WCG) lateStage(e *Edge, servedExploit map[int32]bool) Stage {
	switch e.Kind {
	case EdgeRequest:
		if e.Method == MethodPOST && !servedExploit[e.To] {
			return StagePostDownload
		}
	case EdgeResponse:
		if !servedExploit[e.From] && (e.StatusCode == 200 || (e.StatusCode >= 400 && e.StatusCode < 500)) {
			return StagePostDownload
		}
	}
	return StageDownload
}

// classifyNodes finalizes node roles: hosts that delivered an exploit
// payload become malicious; hosts touched only by redirect edges remain
// intermediaries; every other non-victim, non-origin host is remote.
func (w *WCG) classifyNodes(victim, origin int) {
	delivered := make(map[int32]bool)
	nonRedirect := make(map[int32]bool)
	for _, e := range w.Edges {
		if e.Kind == EdgeResponse && e.PayloadType.IsExploitType() && e.StatusCode >= 200 && e.StatusCode < 300 {
			delivered[e.From] = true
		}
		if e.Kind != EdgeRedirect {
			nonRedirect[e.From] = true
			nonRedirect[e.To] = true
		}
	}
	for i := range w.Nodes {
		n := &w.Nodes[i]
		if n.ID == victim || n.ID == origin {
			continue
		}
		switch id := int32(n.ID); {
		case delivered[id]:
			n.Type = NodeMalicious
		case !nonRedirect[id]:
			n.Type = NodeIntermediary
		default:
			n.Type = NodeRemote
		}
	}
}
