package wcg

import (
	"time"
)

// Summary carries the graph-level annotations of Section III-C: aggregate
// method and response-code counts, referrer totals, payload statistics,
// redirect aggregates, and temporal dynamics. It is the bridge between the
// WCG and the feature extractor, and also backs the Table I / Figure 3-4
// dataset statistics.
type Summary struct {
	Order              int
	Size               int
	UniqueHosts        int // remote hosts plus the victim, excluding the origin node
	GETs               int
	POSTs              int
	OtherMethods       int
	HTTP10X            int
	HTTP20X            int
	HTTP30X            int
	HTTP40X            int
	HTTP50X            int
	RefererSet         int
	RefererEmpty       int
	AvgURILength       float64
	AvgURIsPerHost     float64
	PayloadCounts      map[PayloadClass]int
	AvgPayloadSize     float64
	TotalPayloadBytes  int64
	Duration           time.Duration
	AvgInterTransact   time.Duration
	Redirects          RedirectStats
	PostDownloadEdges  int
	HasCallback        bool // at least one post-download POST request
	DNT                bool
	XFlashVersionSet   bool
	DownloadedExploits int
}

// Summarize computes the graph-level annotations of the WCG.
func (w *WCG) Summarize() Summary {
	s := Summary{
		Order:         w.Order(),
		Size:          w.Size(),
		PayloadCounts: make(map[PayloadClass]int),
		Duration:      w.Duration(),
		Redirects:     w.RedirectStats(),
		DNT:           w.DNT,
	}
	s.XFlashVersionSet = w.XFlashVersion != ""

	var (
		uriLenSum  int
		uriCount   int
		reqTimes   []int64
		paySizeSum int64
		payCount   int
	)
	for _, e := range w.Edges {
		switch e.Kind {
		case EdgeRequest:
			switch e.Method {
			case MethodGET:
				s.GETs++
			case MethodPOST:
				s.POSTs++
			default:
				s.OtherMethods++
			}
			if e.Referred {
				s.RefererSet++
			} else {
				s.RefererEmpty++
			}
			uriLenSum += int(e.URILen)
			uriCount++
			reqTimes = append(reqTimes, e.Time)
			if e.Stage == StagePostDownload {
				s.PostDownloadEdges++
				if e.Method == MethodPOST {
					s.HasCallback = true
				}
			}
		case EdgeResponse:
			switch {
			case e.StatusCode >= 100 && e.StatusCode < 200:
				s.HTTP10X++
			case e.StatusCode >= 200 && e.StatusCode < 300:
				s.HTTP20X++
			case e.StatusCode >= 300 && e.StatusCode < 400:
				s.HTTP30X++
			case e.StatusCode >= 400 && e.StatusCode < 500:
				s.HTTP40X++
			case e.StatusCode >= 500 && e.StatusCode < 600:
				s.HTTP50X++
			}
			if e.PayloadType != PayloadNone {
				s.PayloadCounts[e.PayloadType]++
				paySizeSum += e.PayloadSize
				payCount++
				if e.PayloadType.IsExploitType() && e.StatusCode >= 200 && e.StatusCode < 300 {
					s.DownloadedExploits++
				}
			}
			if e.Stage == StagePostDownload {
				s.PostDownloadEdges++
			}
		}
	}
	if uriCount > 0 {
		s.AvgURILength = float64(uriLenSum) / float64(uriCount)
	}
	s.TotalPayloadBytes = paySizeSum
	if payCount > 0 {
		s.AvgPayloadSize = float64(paySizeSum) / float64(payCount)
	}

	// Unique hosts: every node except the origin marker (f4,
	// Conversation-Length counts conversation participants).
	hostURIs := 0
	for _, n := range w.Nodes {
		if n.Type == NodeOrigin {
			continue
		}
		s.UniqueHosts++
		hostURIs += n.URIs
	}
	if s.UniqueHosts > 0 {
		s.AvgURIsPerHost = float64(hostURIs) / float64(s.UniqueHosts)
	}

	// Average inter-transaction time over consecutive request edges.
	if len(reqTimes) > 1 {
		var sum time.Duration
		for i := 1; i < len(reqTimes); i++ {
			d := Sub(reqTimes[i], reqTimes[i-1])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		s.AvgInterTransact = sum / time.Duration(len(reqTimes)-1)
	}
	return s
}
