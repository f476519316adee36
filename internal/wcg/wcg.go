// Package wcg implements DynaMiner's Web Conversation Graph (Section III):
// the payload-agnostic abstraction of an HTTP conversation between a client
// and remote hosts, its construction from transaction streams, the node/
// edge/graph annotations, conversation-stage assignment (pre-download,
// download, post-download), and redirect-chain inference including
// deobfuscation of meta/JavaScript redirects.
package wcg

import (
	"math"
	"net/netip"
	"strings"
	"time"

	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
)

// PayloadClass is the payload class of a response edge. The classifier
// lives in httpstream, whose capture path keeps a body only when its class
// CarriesRedirects; the graph's annotations use it under these names.
type PayloadClass = httpstream.PayloadClass

// Payload classes (see httpstream.PayloadClass).
const (
	PayloadNone    = httpstream.PayloadNone
	PayloadOther   = httpstream.PayloadOther
	PayloadHTML    = httpstream.PayloadHTML
	PayloadJS      = httpstream.PayloadJS
	PayloadCSS     = httpstream.PayloadCSS
	PayloadImage   = httpstream.PayloadImage
	PayloadText    = httpstream.PayloadText
	PayloadJSON    = httpstream.PayloadJSON
	PayloadArchive = httpstream.PayloadArchive
	PayloadPDF     = httpstream.PayloadPDF
	PayloadEXE     = httpstream.PayloadEXE
	PayloadJAR     = httpstream.PayloadJAR
	PayloadSWF     = httpstream.PayloadSWF
	PayloadXAP     = httpstream.PayloadXAP
	PayloadDMG     = httpstream.PayloadDMG
	PayloadCrypt   = httpstream.PayloadCrypt
)

// ClassifyPayload determines the payload class of a response from the
// request URI and the response Content-Type (httpstream.ClassifyPayload).
func ClassifyPayload(uri, contentType string) PayloadClass {
	return httpstream.ClassifyPayload(uri, contentType)
}

// NodeType classifies a WCG node per Section III-A.
type NodeType uint8

// Node roles. A node is Malicious if at least one exploit payload was
// downloaded from it to the victim; Intermediary if it only chains
// redirections; Origin marks the special enticement-source node.
const (
	NodeVictim NodeType = iota + 1
	NodeRemote
	NodeIntermediary
	NodeMalicious
	NodeOrigin
)

// String names the node type.
func (t NodeType) String() string {
	switch t {
	case NodeVictim:
		return "victim"
	case NodeRemote:
		return "remote"
	case NodeIntermediary:
		return "intermediary"
	case NodeMalicious:
		return "malicious"
	case NodeOrigin:
		return "origin"
	default:
		return "unknown"
	}
}

// EdgeKind is the relation an edge encodes (Section III-A: Φ requests,
// Ψ responses, Σ redirects).
type EdgeKind uint8

// Edge kinds.
const (
	EdgeRequest EdgeKind = iota + 1
	EdgeResponse
	EdgeRedirect
)

// String names the edge kind the way Figure 6 labels edges.
func (k EdgeKind) String() string {
	switch k {
	case EdgeRequest:
		return "req"
	case EdgeResponse:
		return "res"
	case EdgeRedirect:
		return "redir"
	default:
		return "unknown"
	}
}

// Stage is the conversation stage of an edge (Section III-C): 0 for
// pre-download, 1 for download, 2 for post-download.
type Stage uint8

// Conversation stages.
const (
	StagePreDownload  Stage = 0
	StageDownload     Stage = 1
	StagePostDownload Stage = 2
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePreDownload:
		return "pre-download"
	case StageDownload:
		return "download"
	case StagePostDownload:
		return "post-download"
	default:
		return "unknown"
	}
}

// Node is a unique host participating in the conversation, annotated per
// Section III-C (basic attributes, URIs per host, payload summary). It
// holds no pointer: its host is an index into the table the graph was
// built against and its address is kept as a Record keeps one, so the
// GC never scans a graph's nodes. WCG.Host and WCG.Addr read them.
// TestNodeStaysCompact holds the size.
type Node struct {
	ID   int
	URIs int // distinct URIs requested from this host
	// Host is the table index of the hostname, or of the IP string when
	// no Host header was seen; VictimHost for the victim, whose host is
	// the table's Client.
	Host int32
	// The address, as a Record keeps one: its zone's table index (-1
	// when none), As16 bytes and kind (0 when none, 4 or 6).
	ipZone   int32
	ip       [16]byte
	ipKind   uint8
	Type     NodeType
	Payloads [httpstream.NumPayloadClasses]int32 // payloads originating from or received by this node, by class
}

// VictimHost is the victim node's Node.Host: its host is the table's
// Client address, which the table need not hold.
const VictimHost = -1

// Edge is one relation between two hosts, annotated per Section III-C.
// The graph stores edges by value, so appending one copies it, and a
// slice that grows copies them all: TestEdgeStaysCompact holds the size.
// An Edge holds no pointer: its time is Unix nanoseconds (NoTime when
// unset) and its method a code that WCG.Method names.
type Edge struct {
	From, To    int32
	Time        int64
	PayloadSize int64
	URILen      int32
	StatusCode  int32
	// Method is a request edge's method: a known method's Record code
	// (MethodGET, MethodPOST, ...), 0 for none, or 1 + an index into the
	// graph's own list of other methods.
	Method      int16
	PayloadType PayloadClass
	Kind        EdgeKind
	Stage       Stage
	Referred    bool // request edges: the request carried a Referer
	CrossDomain bool // redirect edges: target registered domain differs
}

// WCG is a fully annotated web conversation graph. Nodes and edges are
// stored by value and addressed by index (an edge's From and To are node
// IDs, which are indexes into Nodes); a pointer into either slice is
// valid only until the next append.
type WCG struct {
	Nodes []Node
	Edges []Edge

	// Origin metadata: the enticement source per Section III-B.
	OriginKnown bool
	OriginHost  string // "" when unknown ("empty" origin node)

	// Graph-level annotations.
	DNT           bool
	XFlashVersion string

	t       *Table               // the table node hosts and method codes index
	victim  string               // the victim's host: its address string
	methods []int32              // other methods by Edge.Method-1, as table indexes
	codes   map[int32]int16      // their codes, by table index
	uriSeen map[nodeURI]struct{} // distinct (node, URI hash) pairs behind Node.URIs
	g       *graph.Digraph       // structural projection, grown in place

	// Host/URI aggregates for the O(1) feature path: non-origin node
	// count and total distinct URIs across non-origin nodes.
	uniqueHosts int
	uriTotal    int
}

// StructVersion counts changes to the simple structural projection: it
// is the graph's version, which moves when a node or a previously unseen
// directed pair appears and stays put when an append only adds parallel
// edges or annotations. The feature cache recomputes the expensive graph
// measures only when this moves.
func (w *WCG) StructVersion() uint64 { return w.g.Version() }

// SimpleEdgeStats returns the number of directed simple edges (parallel
// edges collapsed, self-loops excluded) and how many of them have their
// reverse edge present — the O(1) inputs to density and reciprocity.
func (w *WCG) SimpleEdgeStats() (pairs, reciprocal int) {
	return w.g.SimpleM(), w.g.Reciprocal()
}

// HostURIStats returns the number of non-origin nodes and the total count
// of distinct URIs across them — the O(1) inputs to f4 and f5.
func (w *WCG) HostURIStats() (hosts, uris int) {
	return w.uniqueHosts, w.uriTotal
}

// nodeURI keys one distinct URI, by its Record.URIHash, requested from
// one node.
type nodeURI struct {
	node int
	uri  uint64
}

// newWCG returns an empty graph over the records of t.
func newWCG(t *Table) *WCG { return &WCG{t: t, g: graph.New(0)} }

// addNode appends a node for table string host (VictimHost for the
// victim) and returns its ID.
func (w *WCG) addNode(host int32, typ NodeType) int {
	id := len(w.Nodes)
	w.Nodes = append(w.Nodes, Node{ID: id, Host: host, ipZone: -1, Type: typ})
	if typ != NodeOrigin {
		w.uniqueHosts++
	}
	w.g.AddNode()
	return id
}

// addEdge appends e and extends the structural graph in place.
func (w *WCG) addEdge(e Edge) {
	w.Edges = append(w.Edges, e)
	_ = w.g.AddEdge(int(e.From), int(e.To)) // ids are internally consistent
}

// Host is the host name of node id.
func (w *WCG) Host(id int) string {
	if h := w.Nodes[id].Host; h != VictimHost {
		return w.t.Names[h]
	}
	return w.victim
}

// Addr is the address of node id: the table's Client for the victim, the
// first server address seen for a remote host, else the zero Addr.
func (w *WCG) Addr(id int) netip.Addr {
	n := &w.Nodes[id]
	if n.Host == VictimHost {
		return w.t.Client
	}
	return w.t.addr(n.ip, n.ipKind, n.ipZone)
}

// Method is the request method of e, an edge of w ("" for an edge that is
// not a request).
func (w *WCG) Method(e *Edge) string {
	switch {
	case e.Method < 0:
		return knownMethods[-1-e.Method]
	case e.Method > 0:
		return w.t.Names[w.methods[e.Method-1]]
	}
	return ""
}

// methodCode is the Edge.Method of a request whose Record.Method is m. A
// method that is not a known one takes the next code of the graph's list,
// once; past math.MaxInt16 of them a graph names no more, and a request
// edge of a further method exports none (it still counts as another
// method).
func (w *WCG) methodCode(m int32) int16 {
	if m < 0 {
		return int16(m)
	}
	if c, ok := w.codes[m]; ok {
		return c
	}
	if len(w.methods) == math.MaxInt16 {
		return 0
	}
	if w.codes == nil {
		w.codes = make(map[int32]int16)
	}
	w.methods = append(w.methods, m)
	c := int16(len(w.methods))
	w.codes[m] = c
	return c
}

// addURI records a distinct URI (by hash) on node id, keeping the node's
// count and the non-origin URI total in sync with the graph's (node, URI)
// set.
func (w *WCG) addURI(id int, uri uint64) {
	k := nodeURI{id, uri}
	if _, ok := w.uriSeen[k]; ok {
		return
	}
	if w.uriSeen == nil {
		w.uriSeen = make(map[nodeURI]struct{})
	}
	w.uriSeen[k] = struct{}{}
	n := &w.Nodes[id]
	n.URIs++
	if n.Type != NodeOrigin {
		w.uriTotal++
	}
}

// Graph returns the structural projection of the WCG as a directed
// multigraph over node ids. The builder grows it in place as nodes and
// edges arrive, in w.Edges order, so it always matches a from-scratch
// build over the same edges.
func (w *WCG) Graph() *graph.Digraph { return w.g }

// Order is the number of nodes (feature f7).
func (w *WCG) Order() int { return len(w.Nodes) }

// Size is the number of edges (features f3/f8).
func (w *WCG) Size() int { return len(w.Edges) }

// Duration is the wall-clock span from the first to the last edge.
func (w *WCG) Duration() time.Duration {
	first, last := int64(NoTime), int64(NoTime)
	for _, e := range w.Edges {
		if e.Time == NoTime {
			continue
		}
		if first == NoTime || e.Time < first {
			first = e.Time
		}
		last = max(last, e.Time)
	}
	if first == NoTime {
		return 0
	}
	return Sub(last, first)
}

// registeredDomain approximates the eTLD+1 of a host: the final two labels
// of a domain name, or the full string for IP addresses and single-label
// hosts. Sufficient for cross-domain redirect detection on both real and
// synthetic traces. It returns a substring of host and allocates nothing.
func registeredDomain(host string) string {
	if isAddr(host) {
		return host
	}
	i := strings.LastIndexByte(host, '.')
	if i < 0 {
		return host
	}
	return host[strings.LastIndexByte(host[:i], '.')+1:]
}

// topLevelDomain returns the final label of a hostname ("com", "net"), or
// "ip" for address literals.
func topLevelDomain(host string) string {
	if isAddr(host) {
		return "ip"
	}
	return host[strings.LastIndexByte(host, '.')+1:]
}

// isAddr reports whether host is an IP address literal. Only a host with
// a ':' (IPv6) or of digits and dots alone (IPv4) can be one, so a
// hostname never reaches netip.ParseAddr, whose error value would be an
// allocation.
func isAddr(host string) bool {
	if host == "" {
		return false
	}
	if strings.IndexByte(host, ':') < 0 {
		for i := 0; i < len(host); i++ {
			if c := host[i]; c != '.' && !isDigit(c) {
				return false
			}
		}
	}
	_, err := netip.ParseAddr(host)
	return err == nil
}

// HostOfURL extracts the host part of an absolute or schemeless URL,
// lowercased: DNS names are case-insensitive, and node identity (here and
// in the detector's cluster linkage) keys on the host string. Userinfo
// (the authority up to its last '@') and the port are dropped, and a
// bracketed IPv6 literal yields the address inside the brackets. A
// relative or empty URL has no host of its own and yields "".
func HostOfURL(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else if strings.HasPrefix(s, "//") {
		s = s[2:]
	} else if strings.HasPrefix(s, "/") {
		return "" // relative: same host
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i] // the authority
	}
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	if strings.HasPrefix(s, "[") {
		s = s[1:]
		if i := strings.IndexByte(s, ']'); i >= 0 {
			s = s[:i]
		}
	} else if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}
