package wcg

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Wire format for WCG export. Node and edge attributes are flattened into
// JSON-friendly shapes so external tooling (notebooks, dashboards) can
// consume conversation graphs without Go.
type wcgWire struct {
	OriginKnown   bool       `json:"originKnown"`
	OriginHost    string     `json:"originHost,omitempty"`
	DNT           bool       `json:"dnt,omitempty"`
	XFlashVersion string     `json:"xFlashVersion,omitempty"`
	Nodes         []nodeWire `json:"nodes"`
	Edges         []edgeWire `json:"edges"`
}

type nodeWire struct {
	ID       int            `json:"id"`
	Host     string         `json:"host"`
	IP       string         `json:"ip,omitempty"`
	Type     string         `json:"type"`
	URIs     int            `json:"uris"`
	Payloads map[string]int `json:"payloads,omitempty"`
}

type edgeWire struct {
	From        int    `json:"from"`
	To          int    `json:"to"`
	Kind        string `json:"kind"`
	Stage       int    `json:"stage"`
	Time        string `json:"time,omitempty"`
	Method      string `json:"method,omitempty"`
	URILen      int    `json:"uriLen,omitempty"`
	StatusCode  int    `json:"status,omitempty"`
	PayloadType string `json:"payload,omitempty"`
	PayloadSize int64  `json:"payloadSize,omitempty"`
	CrossDomain bool   `json:"crossDomain,omitempty"`
}

// WriteJSON serializes the annotated WCG.
func (w *WCG) WriteJSON(out io.Writer) error {
	wire := wcgWire{
		OriginKnown:   w.OriginKnown,
		OriginHost:    w.OriginHost,
		DNT:           w.DNT,
		XFlashVersion: w.XFlashVersion,
		Nodes:         make([]nodeWire, 0, len(w.Nodes)),
		Edges:         make([]edgeWire, 0, len(w.Edges)),
	}
	for _, n := range w.Nodes {
		nw := nodeWire{
			ID:   n.ID,
			Host: w.Host(n.ID),
			Type: n.Type.String(),
			URIs: n.URIs,
		}
		if a := w.Addr(n.ID); a.IsValid() {
			nw.IP = a.String()
		}
		// Only the classes seen: the encoder sorts map keys, so the
		// bytes do not depend on how the counts are stored.
		for c, count := range n.Payloads {
			if count == 0 {
				continue
			}
			if nw.Payloads == nil {
				nw.Payloads = make(map[string]int)
			}
			nw.Payloads[PayloadClass(c).String()] = int(count)
		}
		wire.Nodes = append(wire.Nodes, nw)
	}
	for _, e := range w.Edges {
		ew := edgeWire{
			From:        int(e.From),
			To:          int(e.To),
			Kind:        e.Kind.String(),
			Stage:       int(e.Stage),
			Method:      w.Method(&e),
			URILen:      int(e.URILen),
			StatusCode:  int(e.StatusCode),
			PayloadSize: e.PayloadSize,
			CrossDomain: e.CrossDomain,
		}
		if e.Time != NoTime {
			ew.Time = Time(e.Time).Format(time.RFC3339Nano)
		}
		if e.PayloadType != PayloadNone {
			ew.PayloadType = e.PayloadType.String()
		}
		wire.Edges = append(wire.Edges, ew)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(wire); err != nil {
		return fmt.Errorf("wcg: encode: %w", err)
	}
	return nil
}
