package wcg

import (
	"regexp"
	"strconv"
	"strings"
)

// The regexp-only sniffer that redirect.go replaced, kept word for word
// (identifiers prefixed ref) as the oracle: deobfuscate and
// SniffBodyRedirects must return exactly what these return, on every
// input. Six whole-body regexp passes and a full copy per pass — do not
// optimise it, its value is that it is obviously the specification.

// Redirect evidence patterns in document bodies (Section III-D: redirection
// evidence is often embedded in HTML or JavaScript, sometimes obfuscated).
var (
	refMetaRefresh = regexp.MustCompile(`(?i)<meta[^>]*http-equiv=["']?refresh["']?[^>]*url=([^"'> ]+)`)
	refJSLocation  = regexp.MustCompile(`(?i)(?:window\.location|document\.location|location\.href|top\.location)\s*=\s*["']([^"']+)["']`)
	refIFrameSrc   = regexp.MustCompile(`(?i)<iframe[^>]*src=["']?(http[^"'> ]+)`)
	refFromChar    = regexp.MustCompile(`String\.fromCharCode\(([0-9,\s]+)\)`)
	refHexEscape   = regexp.MustCompile(`\\x([0-9a-fA-F]{2})`)
	refPctEscape   = regexp.MustCompile(`%([0-9a-fA-F]{2})`)
)

// refDeobfuscate applies the lightweight decoding passes miscreants commonly
// layer over redirect code: String.fromCharCode(...) expansion, \xNN
// escapes, and percent-encoding. The passes run until a fixed point (at
// most four rounds) so stacked encodings unwrap.
func refDeobfuscate(body string) string {
	for round := 0; round < 4; round++ {
		decoded := refFromChar.ReplaceAllStringFunc(body, func(m string) string {
			inner := refFromChar.FindStringSubmatch(m)[1]
			var sb strings.Builder
			for _, part := range strings.Split(inner, ",") {
				code, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || code < 0 || code > 0x10ffff {
					return m
				}
				sb.WriteRune(rune(code))
			}
			return sb.String()
		})
		decoded = refHexEscape.ReplaceAllStringFunc(decoded, func(m string) string {
			v, err := strconv.ParseUint(m[2:], 16, 8)
			if err != nil {
				return m
			}
			return string(rune(v))
		})
		decoded = refPctEscape.ReplaceAllStringFunc(decoded, func(m string) string {
			v, err := strconv.ParseUint(m[1:], 16, 8)
			if err != nil {
				return m
			}
			return string(rune(v))
		})
		if decoded == body {
			return decoded
		}
		body = decoded
	}
	return body
}

// refSniffBodyRedirects extracts redirect target URLs from an HTML or
// JavaScript body after deobfuscation: meta refreshes, JavaScript location
// assignments, and iframe sources.
func refSniffBodyRedirects(body []byte) []string {
	if len(body) == 0 {
		return nil
	}
	text := refDeobfuscate(string(body))
	var out []string
	seen := make(map[string]struct{})
	add := func(matches [][]string) {
		for _, m := range matches {
			u := strings.TrimSpace(m[1])
			if u == "" {
				continue
			}
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			out = append(out, u)
		}
	}
	add(refMetaRefresh.FindAllStringSubmatch(text, -1))
	add(refJSLocation.FindAllStringSubmatch(text, -1))
	add(refIFrameSrc.FindAllStringSubmatch(text, -1))
	return out
}
