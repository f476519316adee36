package wcg

import (
	"net/netip"
	"sort"
	"strings"
	"time"

	"dynaminer/internal/httpstream"
)

// refBuilder is the WCG builder as it read whole transactions: every
// header accessor, the host-string node map and its own body sniff on
// each Add. It survives only as the oracle the record builder is held to
// (TestRecordBuilderMatchesRef): FromTransactions, which digests each
// transaction into a Record and adds that, must serialize byte for byte
// as refFromTransactions does.
type refBuilder struct {
	w            *WCG
	victim       int
	origin       int
	started      bool
	originLinked bool
	byHost       map[string]int
	uris         map[refURI]struct{}
	lastActivity map[string]time.Time
	redirSeen    map[redirKey]struct{}
}

type refURI struct {
	node int
	uri  string
}

func refFromTransactions(txs []httpstream.Transaction) *WCG {
	ordered := make([]httpstream.Transaction, len(txs))
	copy(ordered, txs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ReqTime.Before(ordered[j].ReqTime) })
	b := &refBuilder{
		w:            newWCG(&Table{}),
		victim:       -1,
		origin:       -1,
		byHost:       make(map[string]int),
		uris:         make(map[refURI]struct{}),
		lastActivity: make(map[string]time.Time),
		redirSeen:    make(map[redirKey]struct{}),
	}
	for i := range ordered {
		b.add(ordered[i])
	}
	b.w.assignStages()
	if b.victim >= 0 {
		b.w.classifyNodes(b.victim, b.origin)
	}
	return b.w
}

func (b *refBuilder) ensureNode(host string, ip netip.Addr, typ NodeType) int {
	w := b.w
	if id, ok := b.byHost[host]; ok {
		if n := &w.Nodes[id]; n.Host != VictimHost && n.ipKind == 0 && ip.IsValid() {
			n.ip, n.ipKind, n.ipZone = w.t.pack(ip)
		}
		return id
	}
	var id int
	if typ == NodeVictim {
		w.t.Client, w.victim = ip, host
		id = w.addNode(VictimHost, typ)
	} else {
		id = w.addNode(w.t.Intern(host), typ)
		if ip.IsValid() {
			w.Nodes[id].ip, w.Nodes[id].ipKind, w.Nodes[id].ipZone = w.t.pack(ip)
		}
	}
	b.byHost[host] = id
	return id
}

func (b *refBuilder) addURI(id int, uri string) {
	k := refURI{id, uri}
	if _, ok := b.uris[k]; ok {
		return
	}
	b.uris[k] = struct{}{}
	n := &b.w.Nodes[id]
	n.URIs++
	if n.Type != NodeOrigin {
		b.w.uriTotal++
	}
}

func (b *refBuilder) addRedirect(from, to int, ts time.Time) {
	if from == to {
		return
	}
	k := redirKey{int32(from), int32(to), ts.Unix()}
	if _, ok := b.redirSeen[k]; ok {
		return
	}
	b.redirSeen[k] = struct{}{}
	b.w.addEdge(Edge{
		From: int32(from), To: int32(to), Kind: EdgeRedirect, Time: nanos(ts),
		CrossDomain: refRegisteredDomain(b.w.Host(from)) != refRegisteredDomain(b.w.Host(to)),
	})
}

func (b *refBuilder) add(tx httpstream.Transaction) {
	w := b.w
	if !b.started {
		b.started = true
		b.victim = b.ensureNode(tx.ClientIP.String(), tx.ClientIP, NodeVictim)
		if firstRef := HostOfURL(tx.Referer()); firstRef != "" {
			w.OriginKnown = true
			w.OriginHost = firstRef
			b.origin = b.ensureNode(firstRef, netip.Addr{}, NodeOrigin)
		}
	}
	victimHost := w.Host(b.victim)

	serverHost := strings.ToLower(tx.Host)
	if serverHost == "" {
		serverHost = tx.ServerIP.String()
	}
	server := b.ensureNode(serverHost, tx.ServerIP, NodeRemote)
	b.addURI(server, tx.URI)

	if tx.DNT() {
		w.DNT = true
	}
	if v := tx.XFlashVersion(); v != "" && w.XFlashVersion == "" {
		w.XFlashVersion = v
	}

	referer := tx.Referer()
	w.addEdge(Edge{
		From: int32(b.victim), To: int32(server), Kind: EdgeRequest, Time: nanos(tx.ReqTime),
		Method: w.methodCode(w.t.method(tx.Method)), URILen: int32(len(tx.URI)), Referred: referer != "",
	})
	var payload PayloadClass
	if tx.StatusCode > 0 {
		payload = ClassifyPayload(tx.URI, tx.ContentType)
		if tx.BodySize == 0 && !tx.IsRedirect() {
			payload = PayloadNone
		}
		w.addEdge(Edge{
			From: int32(server), To: int32(b.victim), Kind: EdgeResponse, Time: nanos(tx.RespTime),
			StatusCode: int32(tx.StatusCode), PayloadType: payload, PayloadSize: int64(tx.BodySize),
		})
		if payload != PayloadNone {
			w.Nodes[server].Payloads[payload]++
			w.Nodes[b.victim].Payloads[payload]++
		}
	}

	if tx.IsRedirect() {
		target := HostOfURL(tx.Location())
		if target == "" {
			target = serverHost
		}
		to := b.ensureNode(target, netip.Addr{}, NodeIntermediary)
		b.addRedirect(server, to, tx.RespTime)
	}

	if ref := HostOfURL(referer); ref != "" && ref != serverHost && ref != victimHost {
		if payload == PayloadHTML || (tx.StatusCode >= 300 && tx.StatusCode < 400) {
			if seen, ok := b.lastActivity[ref]; ok && tx.ReqTime.Sub(seen) <= redirectClickGap {
				from := b.ensureNode(ref, netip.Addr{}, NodeIntermediary)
				b.addRedirect(from, server, tx.ReqTime)
			}
		}
	}
	ts := tx.RespTime
	if ts.IsZero() {
		ts = tx.ReqTime
	}
	b.lastActivity[serverHost] = ts

	if payload.CarriesRedirects() {
		for _, target := range SniffBodyRedirects(tx.Body) {
			th := HostOfURL(target)
			if th == "" || th == serverHost {
				continue
			}
			to := b.ensureNode(th, netip.Addr{}, NodeIntermediary)
			b.addRedirect(server, to, tx.RespTime)
		}
	}

	if b.origin >= 0 && !b.originLinked && server != b.origin {
		b.originLinked = true
		b.addRedirect(b.origin, server, tx.ReqTime)
	}
}

// refRegisteredDomain and refTopLevelDomain are the label-splitting
// forms registeredDomain and topLevelDomain replaced; the differential
// test holds the substring forms to them.
func refRegisteredDomain(host string) string {
	if _, err := netip.ParseAddr(host); err == nil {
		return host
	}
	labels := strings.Split(host, ".")
	if len(labels) < 2 {
		return host
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

func refTopLevelDomain(host string) string {
	if _, err := netip.ParseAddr(host); err == nil {
		return "ip"
	}
	if i := strings.LastIndexByte(host, '.'); i >= 0 {
		return host[i+1:]
	}
	return host
}
