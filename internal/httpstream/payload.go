package httpstream

import (
	"strings"
)

// PayloadClass categorizes the payload carried by a response edge. The
// classes mirror the paper's node-level payload summary: known exploit
// types (*.jar, *.exe, *.pdf, *.xap, *.swf), crypto-locker file types
// (collectively "*.crypt"), and commonly exchanged web payloads.
type PayloadClass uint8

// Payload classes. PayloadNone marks responses without a body.
const (
	PayloadNone PayloadClass = iota
	PayloadOther
	PayloadHTML
	PayloadJS
	PayloadCSS
	PayloadImage
	PayloadText
	PayloadJSON
	PayloadArchive
	PayloadPDF
	PayloadEXE
	PayloadJAR
	PayloadSWF
	PayloadXAP
	PayloadDMG
	PayloadCrypt

	// NumPayloadClasses is the size of the closed enum: every class is
	// below it, so a per-class count fits a [NumPayloadClasses] array.
	NumPayloadClasses
)

var payloadNames = map[PayloadClass]string{
	PayloadNone:    "none",
	PayloadOther:   "other",
	PayloadHTML:    "html",
	PayloadJS:      "js",
	PayloadCSS:     "css",
	PayloadImage:   "image",
	PayloadText:    "text",
	PayloadJSON:    "json",
	PayloadArchive: "archive",
	PayloadPDF:     "pdf",
	PayloadEXE:     "exe",
	PayloadJAR:     "jar",
	PayloadSWF:     "swf",
	PayloadXAP:     "xap",
	PayloadDMG:     "dmg",
	PayloadCrypt:   "crypt",
}

// String names the class the way the paper's tables do ("exe", "jar", ...).
func (p PayloadClass) String() string {
	if s, ok := payloadNames[p]; ok {
		return s
	}
	return "unknown"
}

// IsExploitType reports whether the class is a "known exploit payload" in
// the paper's sense: the file types exploit kits drop on victims.
func (p PayloadClass) IsExploitType() bool {
	switch p {
	case PayloadPDF, PayloadEXE, PayloadJAR, PayloadSWF, PayloadXAP, PayloadDMG, PayloadCrypt:
		return true
	default:
		return false
	}
}

// CarriesRedirects reports whether a payload of the class can hide a
// meta/JavaScript/iframe redirect: HTML and JS. It is the one rule for
// both which bodies the redirect sniffer reads and which bodies the
// capture path keeps; every other body is read, counted and dropped.
func (p PayloadClass) CarriesRedirects() bool {
	return p == PayloadHTML || p == PayloadJS
}

// cryptExtensions is the set of 45 crypto-locker file extensions compiled
// from industry ransomware reports, matching the paper's "*.crypt"
// collective class (Section III-C).
var cryptExtensions = map[string]struct{}{
	".crypt": {}, ".crypz": {}, ".cryp1": {}, ".crypto": {}, ".encrypted": {},
	".enc": {}, ".locky": {}, ".zepto": {}, ".odin": {}, ".cerber": {},
	".cerber2": {}, ".cerber3": {}, ".locked": {}, ".cry": {}, ".vault": {},
	".xxx": {}, ".ttt": {}, ".micro": {}, ".mp3enc": {}, ".xtbl": {},
	".ecc": {}, ".ezz": {}, ".exx": {}, ".aaa": {}, ".abc": {},
	".ccc": {}, ".vvv": {}, ".zzz": {}, ".xyz": {}, ".magic": {},
	".petya": {}, ".kraken": {}, ".darkness": {}, ".nochance": {}, ".oshit": {},
	".kkk": {}, ".fun": {}, ".gws": {}, ".btc": {}, ".keybtc": {},
	".paybtc": {}, ".lechiffre": {}, ".rokku": {}, ".surprise": {}, ".sage": {},
}

// CryptExtensionCount is the number of ransomware extensions recognized.
const CryptExtensionCount = 45

var extensionClasses = map[string]PayloadClass{
	".html": PayloadHTML, ".htm": PayloadHTML, ".php": PayloadHTML, ".asp": PayloadHTML, ".aspx": PayloadHTML,
	".js":  PayloadJS,
	".css": PayloadCSS,
	".png": PayloadImage, ".jpg": PayloadImage, ".jpeg": PayloadImage, ".gif": PayloadImage, ".ico": PayloadImage, ".svg": PayloadImage,
	".txt":  PayloadText,
	".json": PayloadJSON,
	".zip":  PayloadArchive, ".gz": PayloadArchive, ".rar": PayloadArchive, ".7z": PayloadArchive, ".cab": PayloadArchive,
	".pdf": PayloadPDF,
	".exe": PayloadEXE, ".msi": PayloadEXE, ".scr": PayloadEXE, ".dll": PayloadEXE,
	".jar": PayloadJAR, ".class": PayloadJAR,
	".swf": PayloadSWF,
	".xap": PayloadXAP,
	".dmg": PayloadDMG,
	".doc": PayloadOther, ".docx": PayloadOther, ".xls": PayloadOther, ".xlsx": PayloadOther,
}

var contentTypeClasses = []struct {
	prefix string
	class  PayloadClass
}{
	{"text/html", PayloadHTML},
	{"application/xhtml", PayloadHTML},
	{"application/javascript", PayloadJS},
	{"text/javascript", PayloadJS},
	{"application/x-javascript", PayloadJS},
	{"text/css", PayloadCSS},
	{"image/", PayloadImage},
	{"text/plain", PayloadText},
	{"application/json", PayloadJSON},
	{"application/zip", PayloadArchive},
	{"application/gzip", PayloadArchive},
	{"application/x-gzip", PayloadArchive},
	{"application/x-rar", PayloadArchive},
	{"application/x-compressed", PayloadArchive},
	{"application/pdf", PayloadPDF},
	{"application/x-msdownload", PayloadEXE},
	{"application/x-dosexec", PayloadEXE},
	{"application/x-msdos-program", PayloadEXE},
	{"application/java-archive", PayloadJAR},
	{"application/x-java-archive", PayloadJAR},
	{"application/x-shockwave-flash", PayloadSWF},
	{"application/x-silverlight-app", PayloadXAP},
	{"application/x-apple-diskimage", PayloadDMG},
}

// uriExtension returns the lowercase file extension of the URI path, with
// query strings and fragments stripped; "" when there is none.
func uriExtension(uri string) string {
	if i := strings.IndexAny(uri, "?#"); i >= 0 {
		uri = uri[:i]
	}
	slash := strings.LastIndexByte(uri, '/')
	dot := strings.LastIndexByte(uri, '.')
	if dot < 0 || dot < slash {
		return ""
	}
	return strings.ToLower(uri[dot:])
}

// ClassifyPayload determines the payload class of a response from the
// request URI and the response Content-Type. Extension evidence wins over
// Content-Type because exploit kits routinely mislabel payloads (e.g. an
// EXE served as application/octet-stream), mirroring the paper's
// extension-driven payload summary.
func ClassifyPayload(uri, contentType string) PayloadClass {
	ext := uriExtension(uri)
	if _, ok := cryptExtensions[ext]; ok {
		return PayloadCrypt
	}
	if c, ok := extensionClasses[ext]; ok {
		return c
	}
	ct := strings.ToLower(contentType)
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	for _, e := range contentTypeClasses {
		if strings.HasPrefix(ct, e.prefix) {
			return e.class
		}
	}
	if ct == "" && ext == "" {
		return PayloadHTML // bare path with no declared type: a page fetch
	}
	return PayloadOther
}
