package wcg

import (
	"math"
	"net/netip"
	"strings"
	"time"

	"dynaminer/internal/httpstream"
)

// Record is one HTTP transaction digested into the fixed-size facts the
// WCG builder and the on-the-wire detector read, so that neither keeps the
// transaction — its header maps, its body — once it has been digested.
// A Record holds no pointer: its strings are indexes into the Table it
// was digested against, and its times are Unix nanoseconds (NoTime when
// unset). The body is read once, by Digest's redirect sniff, and only the
// target hosts survive. TestRecordStaysCompact holds the size.
type Record struct {
	ReqTime, RespTime int64
	BodySize          int64
	// URIHash is the 64-bit FNV-1a hash of the request URI: a node's URI
	// count (Node.URIs) counts the distinct hashes requested from it.
	URIHash uint64

	// Table indexes; -1 where the transaction names none.
	Host  int32 // lowercased Host header, or the server address
	Ref   int32 // host of the Referer URL
	Loc   int32 // redirect target host: the Location's, or Host for a relative one; set iff RecRedirect
	SID   int32 // session id (httpstream.Transaction.SessionID)
	Flash int32 // X-Flash-Version header value
	// Method is the request method: knownMethods[-1-Method] when
	// negative, else a table index.
	Method int32
	// SniffLo and SniffHi delimit the record's sniffed redirect target
	// hosts in Table.Sniffs, in discovery order.
	SniffLo, SniffHi uint32

	URILen int32
	Status int32
	// The server address: As16 bytes, its kind (0 when invalid, 4 or 6)
	// and its zone's table index (-1 when none).
	ServerIP   [16]byte
	ServerZone int32
	ServerKind uint8

	Payload uint8 // httpstream.ClassifyPayload(URI, ContentType), before any body check
	Flags   uint8 // Rec* bits
}

// Record flag bits.
const (
	// RecDNT: the client sent "DNT: 1".
	RecDNT uint8 = 1 << iota
	// RecReferred: the request carried a Referer header.
	RecReferred
	// RecRedirect: a 3xx response with a Location header.
	RecRedirect
	// RecDownload: a 2xx response of a likely-malicious payload type.
	RecDownload
	// RecRefRecent is the detector's: the Referer's host had served the
	// client within the click gap. Digest never sets it and the builder
	// never reads it.
	RecRefRecent
)

// NoTime is a Record's unset timestamp: the zero time.Time has no Unix
// nanosecond form.
const NoTime = math.MinInt64

// nanos is t as a Record stores it.
func nanos(t time.Time) int64 {
	if t.IsZero() {
		return NoTime
	}
	return t.UnixNano()
}

// Time is a Record timestamp as a time.Time in UTC (the zero time for
// NoTime).
func Time(ns int64) time.Time {
	if ns == NoTime {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Sub is Time(a).Sub(Time(b)) without building either: the difference
// saturates as time.Time's does, and NoTime lies before every other time
// by more than a Duration spans.
func Sub(a, b int64) time.Duration {
	switch {
	case a == b:
		return 0
	case a == NoTime:
		return math.MinInt64
	case b == NoTime:
		return math.MaxInt64
	}
	d := a - b
	if (a > b) != (d > 0) { // the difference overflowed
		if a > b {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return time.Duration(d)
}

// PayloadClass is the record's payload class.
func (r *Record) PayloadClass() PayloadClass { return PayloadClass(r.Payload) }

// Post reports whether the request was a POST.
func (r *Record) Post() bool { return r.Method == MethodPOST }

// addr is the address whose As16 bytes are ip, whose kind (0 when
// invalid, 4 or 6) is kind and whose zone is table string zone (-1 when
// none).
func (t *Table) addr(ip [16]byte, kind uint8, zone int32) netip.Addr {
	switch kind {
	case 4:
		return netip.AddrFrom4([4]byte(ip[12:]))
	case 6:
		a := netip.AddrFrom16(ip)
		if zone >= 0 {
			a = a.WithZone(t.Names[zone])
		}
		return a
	}
	return netip.Addr{}
}

// pack is a as addr reads it, interning its zone.
func (t *Table) pack(a netip.Addr) (ip [16]byte, kind uint8, zone int32) {
	zone = -1
	if !a.IsValid() {
		return ip, 0, zone
	}
	ip, kind = a.As16(), 6
	if a.Is4() {
		kind = 4
	} else if z := a.Zone(); z != "" {
		zone = t.Intern(z)
	}
	return ip, kind, zone
}

// knownMethods are the request methods a Record names without the table.
var knownMethods = [...]string{"GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "CONNECT", "TRACE", "PATCH"}

// The codes of the two methods the features count apart, as Record.Method
// and Edge.Method store them.
const (
	MethodGET  = -1
	MethodPOST = -2
)

// NumKnownMethods bounds a negative Record.Method: -NumKnownMethods <=
// Method < 0.
const NumKnownMethods = len(knownMethods)

// Table is the string table Records index: hosts, session ids and the
// other strings a transaction names, each stored once, plus the arena of
// sniffed target hosts. It only grows, so a prefix of Names and Sniffs
// stays valid for the records digested before it was taken.
type Table struct {
	// Client is the victim every record of the table belongs to: the
	// WCG builder's victim node.
	Client netip.Addr
	Names  []string
	Sniffs []int32
	index  map[string]int32
}

// Prefix returns a view of the table as it stands, for reading the
// records digested so far: it shares their names and sniffs, which the
// table only appends past, and has no index.
func (t *Table) Prefix() Table {
	return Table{
		Client: t.Client,
		Names:  t.Names[:len(t.Names):len(t.Names)],
		Sniffs: t.Sniffs[:len(t.Sniffs):len(t.Sniffs)],
	}
}

// Intern returns s's index, adding s when the table lacks it.
func (t *Table) Intern(s string) int32 {
	if i, ok := t.index[s]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]int32)
	}
	i := int32(len(t.Names))
	t.index[s] = i
	t.Names = append(t.Names, s)
	return i
}

// Lookup returns s's index, if the table holds s.
func (t *Table) Lookup(s string) (int32, bool) {
	i, ok := t.index[s]
	return i, ok
}

// internOpt interns s, or returns -1 for "".
func (t *Table) internOpt(s string) int32 {
	if s == "" {
		return -1
	}
	return t.Intern(s)
}

// Keys are the strings a transaction is routed and linked by.
type Keys struct {
	Host string // lowercased Host header, or the server address
	Ref  string // host of the Referer URL
	SID  string // session id
}

// KeysOf reads a transaction's keys.
func KeysOf(tx *httpstream.Transaction) Keys {
	host := strings.ToLower(tx.Host)
	if host == "" {
		host = tx.ServerIP.String()
	}
	return Keys{Host: host, Ref: HostOfURL(tx.Referer()), SID: tx.SessionID()}
}

// Digest reduces tx, whose keys are k, to its Record against t: the
// strings it names are interned and the body of an HTML or JS response is
// sniffed for redirect targets, whose hosts go to t.Sniffs. Nothing of tx
// is kept but strings the table interns.
func (t *Table) Digest(tx *httpstream.Transaction, k Keys) Record {
	r := Record{
		ReqTime:  nanos(tx.ReqTime),
		RespTime: nanos(tx.RespTime),
		BodySize: int64(tx.BodySize),
		URIHash:  hashURI(tx.URI),
		Host:     t.Intern(k.Host),
		Ref:      t.internOpt(k.Ref),
		Loc:      -1,
		SID:      t.internOpt(k.SID),
		Flash:    t.internOpt(tx.XFlashVersion()),
		Method:   t.method(tx.Method),
		URILen:   int32(len(tx.URI)),
		Status:   int32(tx.StatusCode),
		Payload:  uint8(ClassifyPayload(tx.URI, tx.ContentType)),
	}
	r.ServerIP, r.ServerKind, r.ServerZone = t.pack(tx.ServerIP)
	if tx.DNT() {
		r.Flags |= RecDNT
	}
	if tx.Referer() != "" {
		r.Flags |= RecReferred
	}
	if tx.IsRedirect() {
		r.Flags |= RecRedirect
		r.Loc = r.Host // a relative redirect stays on the host
		if h := HostOfURL(tx.Location()); h != "" {
			r.Loc = t.Intern(h)
		}
	}
	payload := r.PayloadClass()
	if payload.IsExploitType() && tx.StatusCode >= 200 && tx.StatusCode < 300 {
		r.Flags |= RecDownload
	}
	r.SniffLo = uint32(len(t.Sniffs))
	if payload.CarriesRedirects() {
		for _, target := range SniffBodyRedirects(tx.Body) {
			if h := HostOfURL(target); h != "" {
				t.Sniffs = append(t.Sniffs, t.Intern(h))
			}
		}
	}
	r.SniffHi = uint32(len(t.Sniffs))
	return r
}

// method encodes a request method for Record.Method.
func (t *Table) method(m string) int32 {
	for i, k := range knownMethods {
		if m == k {
			return int32(-1 - i)
		}
	}
	return t.Intern(m)
}

// hashURI is the 64-bit FNV-1a hash of s.
func hashURI(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
