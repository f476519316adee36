package wcg

import (
	"bytes"
	"cmp"
	"regexp"
	"slices"
	"time"
	"unicode/utf8"
)

// Redirect evidence in document bodies (Section III-D: redirection
// evidence is often embedded in HTML or JavaScript, sometimes obfuscated).
//
// Bodies are hostile input and most of them hold no evidence at all, so
// nothing here runs over a whole body: every pass finds its candidates by
// byte search and matches only at a candidate. The two tag patterns stay
// regexps because `s` also folds to U+017F under (?i); they run on one
// tag's window at a time. redirect_ref_test.go keeps the regexp-only
// sniffer this replaced as the oracle the tests compare against.
var (
	reMetaRefresh = regexp.MustCompile(`(?i)<meta[^>]*http-equiv=["']?refresh["']?[^>]*url=([^"'> ]+)`)
	reIFrameSrc   = regexp.MustCompile(`(?i)<iframe[^>]*src=["']?(http[^"'> ]+)`)

	fromCharCode = []byte("String.fromCharCode(")
	hexEscape    = []byte(`\x`)
	pctEscape    = []byte("%")
)

// deobfuscate applies the lightweight decoding passes miscreants commonly
// layer over redirect code: String.fromCharCode(...) expansion, \xNN
// escapes, and percent-encoding. The passes run until a fixed point (at
// most four rounds) so stacked encodings unwrap. Every decode replaces an
// escape with fewer bytes than it took, so an unchanged length means
// nothing decoded, and then the result is b itself, not a copy.
func deobfuscate(b []byte) []byte {
	for round := 0; round < 4; round++ {
		d := decodeEscapes(decodeEscapes(expandFromCharCode(b), hexEscape), pctEscape)
		if len(d) == len(b) {
			return d
		}
		b = d
	}
	return b
}

// expandFromCharCode replaces each String.fromCharCode(n, n, ...) whose
// arguments are all code points with the characters they name; a call
// with any other argument stays as it is.
func expandFromCharCode(b []byte) []byte {
	var out []byte
	done := 0 // b[:done] is already in out, decoded
	for i := 0; ; {
		j := bytes.Index(b[i:], fromCharCode)
		if j < 0 {
			break
		}
		start := i + j
		i = start + len(fromCharCode)
		args := i
		for i < len(b) && (b[i] == ',' || isDigit(b[i]) || isSpace(b[i])) {
			i++
		}
		if i == args || i == len(b) || b[i] != ')' {
			continue
		}
		var buf [64]byte // decode first: a call that stays as it is must not cost a copy of what precedes it
		chars, ok := appendCharCodes(buf[:0], b[args:i])
		if !ok {
			continue
		}
		if out == nil {
			out = make([]byte, 0, len(b))
		}
		out = append(append(out, b[done:start]...), chars...)
		i++
		done = i
	}
	if done == 0 {
		return b
	}
	return append(out, b[done:]...)
}

// appendCharCodes appends the characters named by a fromCharCode argument
// list such as "104, 116". ok is false when an argument is not a decimal
// code point: empty, split by white space, or above U+10FFFF.
func appendCharCodes(dst, args []byte) (_ []byte, ok bool) {
	for more := true; more; {
		arg := args
		if c := bytes.IndexByte(args, ','); c >= 0 {
			arg, args = args[:c], args[c+1:]
		} else {
			more = false
		}
		arg = bytes.TrimSpace(arg)
		if len(arg) == 0 {
			return dst, false
		}
		code := 0
		for _, c := range arg {
			if !isDigit(c) {
				return dst, false
			}
			if code = code*10 + int(c-'0'); code > utf8.MaxRune {
				return dst, false
			}
		}
		dst = utf8.AppendRune(dst, rune(code))
	}
	return dst, true
}

// decodeEscapes replaces each prefix followed by two hex digits with code
// point U+00HH in UTF-8 (so %FF becomes two bytes, as string(rune(0xFF))
// is). It returns b itself when there is nothing to decode.
func decodeEscapes(b, prefix []byte) []byte {
	var out []byte
	done := 0 // b[:done] is already in out, decoded
	for i := 0; ; {
		j := bytes.Index(b[i:], prefix)
		if j < 0 || i+j+len(prefix)+2 > len(b) {
			break
		}
		start := i + j
		i = start + len(prefix)
		hi, lo := unhex(b[i]), unhex(b[i+1])
		if hi < 0 || lo < 0 {
			continue
		}
		if out == nil {
			out = make([]byte, 0, len(b))
		}
		out = append(out, b[done:start]...)
		out = utf8.AppendRune(out, rune(hi<<4|lo))
		i += 2
		done = i
	}
	if done == 0 {
		return b
	}
	return append(out, b[done:]...)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isSpace is the regexp class \s.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r' }

// unhex returns the value of a hex digit, or -1.
func unhex(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case 'a' <= c|0x20 && c|0x20 <= 'f':
		return int(c|0x20-'a') + 10
	}
	return -1
}

// hasFoldPrefix reports whether t starts with lit in either case. lit is
// lower-case ASCII. Of the ASCII letters only k and s have a non-ASCII
// simple fold (U+212A, U+017F); every literal passed here is free of
// both, so this is what (?i) matches.
func hasFoldPrefix(t []byte, lit string) bool {
	if len(t) < len(lit) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		c := t[i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != lit[i] {
			return false
		}
	}
	return true
}

// containsFold reports whether t holds lit in either case.
func containsFold(t []byte, lit string) bool {
	for ; len(t) >= len(lit); t = t[1:] {
		if hasFoldPrefix(t, lit) {
			return true
		}
	}
	return false
}

// SniffBodyRedirects extracts redirect target URLs from an HTML or
// JavaScript body after deobfuscation: meta refreshes, JavaScript location
// assignments, and iframe sources. The returned strings are copies; none
// aliases body.
func SniffBodyRedirects(body []byte) []string {
	text := deobfuscate(body)
	var found targets
	found.inTag(text, "<meta", "url=", reMetaRefresh)
	found.inLocationAssignments(text)
	found.inTag(text, "<iframe", "http", reIFrameSrc)
	return found.urls
}

// targets collects sniffed URLs in order of discovery, each once.
type targets struct {
	urls []string
	seen map[string]struct{}
}

func (f *targets) add(u []byte) {
	u = bytes.TrimSpace(u)
	if _, dup := f.seen[string(u)]; dup || len(u) == 0 {
		return
	}
	if f.seen == nil {
		f.seen = make(map[string]struct{})
	}
	s := string(u)
	f.seen[s] = struct{}{}
	f.urls = append(f.urls, s)
}

// inTag runs re on the window of each tag: from the tag's opening, found
// in either case, to the next '>' or the end of the text. A match of
// either tag pattern starts with its tag and cannot contain '>', so it
// lies inside one window and FindAll within the window finds it; windows
// do not overlap, so the text is matched over at most once. A window
// without the pattern's mandatory literal is skipped, which is nearly
// every <meta> of an ordinary page.
func (f *targets) inTag(t []byte, tag, literal string, re *regexp.Regexp) {
	for i := 0; ; {
		j := bytes.IndexByte(t[i:], '<')
		if j < 0 {
			return
		}
		i += j
		if !hasFoldPrefix(t[i:], tag) {
			i++
			continue
		}
		window := t[i:]
		if end := bytes.IndexByte(window, '>'); end >= 0 {
			window = window[:end]
		}
		if containsFold(window, literal) {
			for _, m := range re.FindAllSubmatch(window, -1) {
				f.add(m[1])
			}
		}
		i += len(window)
	}
}

// inLocationAssignments matches, at each "location" in either case,
//
//	(?i)(?:window\.location|document\.location|location\.href|top\.location)\s*=\s*["']([^"']+)["']
//
// by hand. Leftmost-first order is kept: a prefixed alternative starts
// before location.href at the same "location", and at most one of the two
// reaches the '=' (one wants it next, the other wants ".href"). Matches do
// not overlap, so scanning resumes after the closing quote.
func (f *targets) inLocationAssignments(t []byte) {
	const location = "location"
	for i := 0; i+len(location) <= len(t); i++ {
		if t[i]|0x20 != 'l' || !hasFoldPrefix(t[i:], location) {
			continue
		}
		at := i + len(location) // where the assignment has to start
		var target []byte
		n := 0
		if before := t[:i]; hasFoldSuffix(before, "window.") || hasFoldSuffix(before, "document.") || hasFoldSuffix(before, "top.") {
			target, n = quotedAssignment(t[at:])
		}
		if n == 0 && hasFoldPrefix(t[at:], ".href") {
			at += len(".href")
			target, n = quotedAssignment(t[at:])
		}
		if n > 0 {
			f.add(target)
			i = at + n - 1
		}
	}
}

func hasFoldSuffix(t []byte, lit string) bool {
	return len(t) >= len(lit) && hasFoldPrefix(t[len(t)-len(lit):], lit)
}

// quotedAssignment matches \s*=\s*["']([^"']+)["'] at the start of t and
// returns the quoted text and the length of the match, or 0 when t does
// not start with one. The quotes need not pair, as in the pattern.
func quotedAssignment(t []byte) (quoted []byte, n int) {
	i := 0
	for i < len(t) && isSpace(t[i]) {
		i++
	}
	if i == len(t) || t[i] != '=' {
		return nil, 0
	}
	for i++; i < len(t) && isSpace(t[i]); i++ {
	}
	if i == len(t) || (t[i] != '"' && t[i] != '\'') {
		return nil, 0
	}
	i++
	end := bytes.IndexAny(t[i:], `"'`)
	if end <= 0 { // unterminated, or empty
		return nil, 0
	}
	return t[i : i+end], i + end + 1
}

// Chain is one reconstructed redirection chain: the ordered node ids and
// the timestamps of the hops between them.
type Chain struct {
	Nodes []int
	Times []int64 // one per hop, as Edge.Time: len(Nodes)-1 entries
}

// Hops is the number of redirect hops in the chain.
func (c Chain) Hops() int { return len(c.Nodes) - 1 }

// RedirectChains reconstructs redirection chains from the redirect edges:
// edges are sorted by time and greedily linked head-to-tail (a hop B->C
// continues a chain ending at B if it is not earlier than the chain's last
// hop). Each redirect edge belongs to exactly one chain.
func (w *WCG) RedirectChains() []Chain {
	var redirs []Edge
	for _, e := range w.Edges {
		if e.Kind == EdgeRedirect {
			redirs = append(redirs, e)
		}
	}
	slices.SortStableFunc(redirs, func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) })

	var chains []Chain
	// chainAt maps a node id to the index of the open chain ending there.
	chainAt := make(map[int32]int)
	for _, e := range redirs {
		if ci, ok := chainAt[e.From]; ok {
			c := &chains[ci]
			c.Nodes = append(c.Nodes, int(e.To))
			c.Times = append(c.Times, e.Time)
			delete(chainAt, e.From)
			chainAt[e.To] = ci
			continue
		}
		chains = append(chains, Chain{Nodes: []int{int(e.From), int(e.To)}, Times: []int64{e.Time}})
		chainAt[e.To] = len(chains) - 1
	}
	return chains
}

// RedirectStats aggregates redirect-chain measures for graph-level
// annotations and features.
type RedirectStats struct {
	TotalRedirects   int           // all redirect edges (the paper's modified sum-of-all rule)
	MaxChainLen      int           // unique hops in the longest chain
	CrossDomainCount int           // redirects crossing registered domains
	TLDDiversity     int           // unique TLDs among redirect participants
	AvgRedirectDelay time.Duration // mean delay between successive hops within chains
}

// RedirectStats computes the redirect aggregates of the WCG.
func (w *WCG) RedirectStats() RedirectStats {
	var st RedirectStats
	tlds := make(map[string]struct{})
	for _, e := range w.Edges {
		if e.Kind != EdgeRedirect {
			continue
		}
		st.TotalRedirects++
		if e.CrossDomain {
			st.CrossDomainCount++
		}
		tlds[topLevelDomain(w.Host(int(e.From)))] = struct{}{}
		tlds[topLevelDomain(w.Host(int(e.To)))] = struct{}{}
	}
	st.TLDDiversity = len(tlds)

	var delaySum time.Duration
	delays := 0
	for _, c := range w.RedirectChains() {
		if c.Hops() > st.MaxChainLen {
			st.MaxChainLen = c.Hops()
		}
		for i := 1; i < len(c.Times); i++ {
			delaySum += Sub(c.Times[i], c.Times[i-1])
			delays++
		}
	}
	if delays > 0 {
		st.AvgRedirectDelay = delaySum / time.Duration(delays)
	}
	return st
}
