package wcg

import (
	"encoding/xml"
	"fmt"
	"io"
)

// GraphML export so conversation graphs open directly in Gephi/yEd.
// Node attributes: host, role; edge attributes: kind, stage, method,
// status, payload.

type graphmlDoc struct {
	XMLName xml.Name      `xml:"graphml"`
	Xmlns   string        `xml:"xmlns,attr"`
	Keys    []graphmlKey  `xml:"key"`
	Graph   graphmlInnerG `xml:"graph"`
}

type graphmlKey struct {
	ID   string `xml:"id,attr"`
	For  string `xml:"for,attr"`
	Name string `xml:"attr.name,attr"`
	Type string `xml:"attr.type,attr"`
}

type graphmlInnerG struct {
	ID          string        `xml:"id,attr"`
	EdgeDefault string        `xml:"edgedefault,attr"`
	Nodes       []graphmlNode `xml:"node"`
	Edges       []graphmlEdge `xml:"edge"`
}

type graphmlNode struct {
	ID   string        `xml:"id,attr"`
	Data []graphmlData `xml:"data"`
}

type graphmlEdge struct {
	Source string        `xml:"source,attr"`
	Target string        `xml:"target,attr"`
	Data   []graphmlData `xml:"data"`
}

type graphmlData struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// WriteGraphML serializes the annotated WCG as GraphML.
func (w *WCG) WriteGraphML(out io.Writer) error {
	doc := graphmlDoc{
		Xmlns: "http://graphml.graphdrawing.org/xmlns",
		Keys: []graphmlKey{
			{ID: "host", For: "node", Name: "host", Type: "string"},
			{ID: "role", For: "node", Name: "role", Type: "string"},
			{ID: "kind", For: "edge", Name: "kind", Type: "string"},
			{ID: "stage", For: "edge", Name: "stage", Type: "string"},
			{ID: "method", For: "edge", Name: "method", Type: "string"},
			{ID: "status", For: "edge", Name: "status", Type: "int"},
			{ID: "payload", For: "edge", Name: "payload", Type: "string"},
		},
		Graph: graphmlInnerG{ID: "wcg", EdgeDefault: "directed"},
	}
	for _, n := range w.Nodes {
		doc.Graph.Nodes = append(doc.Graph.Nodes, graphmlNode{
			ID: fmt.Sprintf("n%d", n.ID),
			Data: []graphmlData{
				{Key: "host", Value: w.Host(n.ID)},
				{Key: "role", Value: n.Type.String()},
			},
		})
	}
	for _, e := range w.Edges {
		ge := graphmlEdge{
			Source: fmt.Sprintf("n%d", e.From),
			Target: fmt.Sprintf("n%d", e.To),
			Data: []graphmlData{
				{Key: "kind", Value: e.Kind.String()},
				{Key: "stage", Value: e.Stage.String()},
			},
		}
		if m := w.Method(&e); m != "" {
			ge.Data = append(ge.Data, graphmlData{Key: "method", Value: m})
		}
		if e.StatusCode != 0 {
			ge.Data = append(ge.Data, graphmlData{Key: "status", Value: fmt.Sprint(e.StatusCode)})
		}
		if e.PayloadType != PayloadNone {
			ge.Data = append(ge.Data, graphmlData{Key: "payload", Value: e.PayloadType.String()})
		}
		doc.Graph.Edges = append(doc.Graph.Edges, ge)
	}
	if _, err := io.WriteString(out, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(out)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("wcg: graphml encode: %w", err)
	}
	_, err := io.WriteString(out, "\n")
	return err
}
