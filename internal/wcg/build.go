package wcg

import (
	"net/netip"
	"sort"
	"strings"
	"time"

	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
)

// redirectClickGap separates automatic redirections (tens to hundreds of
// milliseconds after the referring page) from human link-clicks (seconds).
const redirectClickGap = 2 * time.Second

// Builder constructs a WCG incrementally from a time-ordered transaction
// stream (Section III-B). The on-the-wire stage grows potential-infection
// WCGs one transaction at a time; feeding transactions in timestamp order
// makes the incremental result identical to the batch FromTransactions.
type Builder struct {
	w            *WCG
	victim       int
	origin       int
	started      bool
	originLinked bool
	lastActivity map[string]time.Time
	redirSeen    map[redirKey]struct{}
}

type redirKey struct {
	from, to int
	sec      int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		w:            &WCG{byHost: make(map[string]int), g: graph.New(0)},
		victim:       -1,
		origin:       -1,
		lastActivity: make(map[string]time.Time),
		redirSeen:    make(map[redirKey]struct{}),
	}
}

// FromTransactions constructs a fully annotated WCG from an HTTP
// transaction stream: nodes from unique hosts, an origin node from the
// enticement referrer, request/response edges per transaction, redirect
// edges inferred from Location headers, fast cross-host document
// referrers, and (de-obfuscated) meta/JavaScript redirects in bodies,
// followed by conversation-stage assignment and node role classification.
func FromTransactions(txs []httpstream.Transaction) *WCG {
	ordered := make([]httpstream.Transaction, len(txs))
	copy(ordered, txs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ReqTime.Before(ordered[j].ReqTime) })
	b := NewBuilder()
	for i := range ordered {
		b.Add(ordered[i])
	}
	return b.WCG()
}

// addRedirect inserts a deduplicated redirect edge.
func (b *Builder) addRedirect(from, to int, ts time.Time) {
	if from == to {
		return
	}
	k := redirKey{from, to, ts.Unix()}
	if _, ok := b.redirSeen[k]; ok {
		return
	}
	b.redirSeen[k] = struct{}{}
	b.w.addEdge(Edge{
		From: from, To: to, Kind: EdgeRedirect, Time: ts,
		CrossDomain: registeredDomain(b.w.Nodes[from].Host) != registeredDomain(b.w.Nodes[to].Host),
	})
}

// Add ingests one transaction. Transactions must arrive in timestamp
// order for stage assignment to match the batch construction.
func (b *Builder) Add(tx httpstream.Transaction) {
	w := b.w
	if !b.started {
		b.started = true
		victimHost := tx.ClientIP.String()
		b.victim = w.ensureNode(victimHost, tx.ClientIP, NodeVictim)
		// Origin node: the referrer of the first transaction names the
		// enticement source. An unknown origin is recorded as metadata
		// only ("marked empty"); adding an isolated marker node would skew
		// every distance-based measure of origin-less conversations.
		if firstRef := HostOfURL(tx.Referer()); firstRef != "" {
			w.OriginKnown = true
			w.OriginHost = firstRef
			b.origin = w.ensureNode(firstRef, invalidAddr(), NodeOrigin)
		}
	}
	victimHost := w.Nodes[b.victim].Host

	serverHost := strings.ToLower(tx.Host)
	if serverHost == "" {
		serverHost = tx.ServerIP.String()
	}
	server := w.ensureNode(serverHost, tx.ServerIP, NodeRemote)
	w.addURI(server, tx.URI)

	if tx.DNT() {
		w.DNT = true
	}
	if v := tx.XFlashVersion(); v != "" && w.XFlashVersion == "" {
		w.XFlashVersion = v
	}

	referer := tx.Referer()
	w.addEdge(Edge{
		From: b.victim, To: server, Kind: EdgeRequest, Time: tx.ReqTime,
		Method: tx.Method, URILen: len(tx.URI), Referred: referer != "",
	})
	var payload PayloadClass
	if tx.StatusCode > 0 {
		payload = ClassifyPayload(tx.URI, tx.ContentType)
		if tx.BodySize == 0 && !tx.IsRedirect() {
			payload = PayloadNone
		}
		w.addEdge(Edge{
			From: server, To: b.victim, Kind: EdgeResponse, Time: tx.RespTime,
			StatusCode: tx.StatusCode, PayloadType: payload, PayloadSize: tx.BodySize,
		})
		if payload != PayloadNone {
			w.Nodes[server].Payloads[payload]++
			w.Nodes[b.victim].Payloads[payload]++
		}
	}

	// Redirect edge from a Location header.
	if tx.IsRedirect() {
		target := HostOfURL(tx.Location())
		if target == "" {
			target = serverHost // relative redirect: same host
		}
		to := w.ensureNode(target, invalidAddr(), NodeIntermediary)
		b.addRedirect(server, to, tx.RespTime)
	}

	// Referrer-based navigation: a document fetched from host B with a
	// referrer on host A evidences A chaining the victim to B. Two gates
	// keep human browsing out: only document payloads count (subresources
	// naturally carry cross-host referrers), and the navigation must
	// follow the referring host's last activity within redirectClickGap —
	// automatic redirections fire in milliseconds, link-clicks take
	// seconds (Section III-C's delay insight).
	if ref := HostOfURL(referer); ref != "" && ref != serverHost && ref != victimHost {
		if payload == PayloadHTML || (tx.StatusCode >= 300 && tx.StatusCode < 400) {
			if seen, ok := b.lastActivity[ref]; ok && tx.ReqTime.Sub(seen) <= redirectClickGap {
				from := w.ensureNode(ref, invalidAddr(), NodeIntermediary)
				b.addRedirect(from, server, tx.ReqTime)
			}
		}
	}
	ts := tx.RespTime
	if ts.IsZero() {
		ts = tx.ReqTime
	}
	b.lastActivity[serverHost] = ts

	// Meta/JavaScript/iframe redirects hidden in document bodies.
	if payload.CarriesRedirects() {
		for _, target := range SniffBodyRedirects(tx.Body) {
			th := HostOfURL(target)
			if th == "" || th == serverHost {
				continue
			}
			to := w.ensureNode(th, invalidAddr(), NodeIntermediary)
			b.addRedirect(server, to, tx.RespTime)
		}
	}

	// Connect a known origin to the first contacted server. An unknown
	// ("empty") origin stays metadata: fabricating a hop for it would
	// credit every conversation with a redirect it never had.
	if b.origin >= 0 && !b.originLinked && server != b.origin {
		b.originLinked = true
		b.addRedirect(b.origin, server, tx.ReqTime)
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
	var tFirst, tLast time.Time
	servedExploit := make(map[int]bool)
	for _, e := range w.Edges {
		if e.Kind == EdgeResponse && e.StatusCode >= 200 && e.StatusCode < 300 && e.PayloadType.IsExploitType() {
			if tFirst.IsZero() || e.Time.Before(tFirst) {
				tFirst = e.Time
			}
			if e.Time.After(tLast) {
				tLast = e.Time
			}
			servedExploit[e.From] = true
		}
	}
	if tFirst.IsZero() {
		for i := range w.Edges {
			w.Edges[i].Stage = StagePreDownload
		}
		return
	}
	for i := range w.Edges {
		e := &w.Edges[i]
		switch {
		case e.Time.Before(tFirst):
			e.Stage = StagePreDownload
		case e.Time.After(tLast):
			e.Stage = w.lateStage(e, servedExploit)
		default:
			e.Stage = StageDownload
		}
	}
}

// lateStage decides the stage of an edge occurring after the last exploit
// download: POST dialogues with fresh hosts are post-download C&C traffic.
func (w *WCG) lateStage(e *Edge, servedExploit map[int]bool) Stage {
	switch e.Kind {
	case EdgeRequest:
		if e.Method == "POST" && !servedExploit[e.To] {
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
	delivered := make(map[int]bool)
	nonRedirect := make(map[int]bool)
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
		switch {
		case delivered[n.ID]:
			n.Type = NodeMalicious
		case !nonRedirect[n.ID]:
			n.Type = NodeIntermediary
		default:
			n.Type = NodeRemote
		}
	}
}

// invalidAddr is the zero netip.Addr used for nodes known only by name.
func invalidAddr() netip.Addr { return netip.Addr{} }
