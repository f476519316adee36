package detector

import (
	"encoding/binary"
	"net/http"
	"sort"

	"dynaminer/internal/httpstream"
)

// The DMCP version 1 cluster encoding, kept as the test encoder of the
// artifacts version 1 restore must still read: a cluster's history is its
// whole transactions, each serialized canonically — fixed field order, u32
// length prefixes, header keys sorted — body and all. Only the hostile
// inputs of the v1 reader tests are built with it; testdata/v1.dmcp was
// written by the engine's own encoder while version 1 was current.

// appendTx serializes one HTTP transaction as version 1 did.
func appendTx(dst []byte, tx *httpstream.Transaction) []byte {
	dst = appendAddr(dst, tx.ClientIP)
	dst = appendAddr(dst, tx.ServerIP)
	dst = binary.LittleEndian.AppendUint16(dst, tx.ClientPort)
	dst = binary.LittleEndian.AppendUint16(dst, tx.ServerPort)
	dst = appendString(dst, tx.Method)
	dst = appendString(dst, tx.URI)
	dst = appendString(dst, tx.Host)
	dst = appendHeader(dst, tx.ReqHdr)
	dst = appendTime(dst, tx.ReqTime)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(tx.ReqBodySize)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tx.StatusCode)))
	dst = appendHeader(dst, tx.RespHdr)
	dst = appendTime(dst, tx.RespTime)
	dst = appendString(dst, tx.ContentType)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(tx.BodySize)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Body)))
	dst = append(dst, tx.Body...)
	return dst
}

// appendHeader encodes an http.Header with sorted keys so identical
// headers always produce identical bytes.
func appendHeader(dst []byte, h http.Header) []byte {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		vals := h[k]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
		for _, v := range vals {
			dst = appendString(dst, v)
		}
	}
	return dst
}
