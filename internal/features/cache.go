package features

import (
	"time"

	"dynaminer/internal/graph"
	"dynaminer/internal/wcg"
)

// Cache maintains the 37-feature vector of a growing WCG incrementally.
// It is keyed on the live WCG of one watched cluster: after every batch of
// appended transactions, a sync scans only the new edges and updates the
// running aggregates behind the HLF, HF, and TF slots (plus the degree/
// density/volume/reciprocity GF slots, which reduce to counters the WCG
// already maintains) in O(1) per edge, using the exact arithmetic of the
// from-scratch extractor so the resulting floats are bit-identical. The
// topology-bound GF slots — diameter, the centrality family,
// connectivity, clustering, neighbourhood statistics — follow the
// undirected simple projection through a graph.Topology the cache keeps,
// which classifies each sync's change (DESIGN.md §8): none (parallel
// edges, annotations, a first reverse-direction edge on an existing host
// pair) refreshes nothing; one new leaf on an existing node (a new
// call-back host) moves the kept integers in O(n); anything else re-runs
// the sweep and the kernels through the reusable graph.Scratch to refill
// them. Either way one fold makes every float slot from those integers,
// so the two paths serve the same bits.
//
// A Cache observes its WCG strictly through appends (the only mutation the
// builder performs) and is not safe for concurrent use.
type Cache struct {
	w       *wcg.WCG
	scratch *graph.Scratch

	v [NumFeatures]float64

	// Sync cursor, and the topology slots' kept state: valid once a sync
	// has recomputed it for w, kept (with its storage) across Reset.
	edgeCount int
	topo      graph.Topology
	gfValid   bool
	change    graph.Change // of the last sync
	topoRuns  uint64

	// Running aggregates mirroring wcg.Summarize.
	gets, posts, other      int
	h10, h20, h30, h40, h50 int
	refSet, refEmpty        int
	uriLenSum, uriCount     int
	maxDegree               int
	first, last             int64 // the timed edges' bounds, as wcg.Edge.Time; wcg.NoTime before one
	lastReq                 int64
	reqCount                int
	gapSum                  time.Duration
}

// NewCache returns a cache over w. The scratch may be shared with other
// caches that run on the same goroutine (one per detector engine); nil
// allocates a private one.
func NewCache(w *wcg.WCG, s *graph.Scratch) *Cache {
	c := new(Cache)
	c.Reset(w, s)
	return c
}

// Reset rebinds the cache to w, zeroing the sync cursor and every running
// aggregate so the next FeaturesInto recomputes from scratch — bit-identical
// to a fresh NewCache(w, s). A nil s keeps the cache's current scratch
// (allocating one only if the cache never had any), and the topology
// state keeps its storage, which is what lets one cache+scratch pair sweep
// a whole batch of WCGs without per-episode allocation.
func (c *Cache) Reset(w *wcg.WCG, s *graph.Scratch) {
	if s == nil {
		s = c.scratch
	}
	if s == nil {
		s = graph.NewScratch()
	}
	*c = Cache{w: w, scratch: s, topo: c.topo, first: wcg.NoTime, last: wcg.NoTime}
}

// Features returns a freshly allocated feature vector, syncing first.
func (c *Cache) Features() []float64 {
	return c.FeaturesInto(make([]float64, NumFeatures))
}

// FeaturesInto syncs the cache with the WCG and writes the 37 features
// into dst (grown if needed), returning it.
func (c *Cache) FeaturesInto(dst []float64) []float64 {
	c.sync()
	if cap(dst) < NumFeatures {
		dst = make([]float64, NumFeatures)
	}
	dst = dst[:NumFeatures]
	copy(dst, c.v[:])
	return dst
}

// sync folds the edges appended since the last call into the running
// aggregates, reassembles the O(1) slots, and refreshes the topology
// slots when the undirected simple projection changed.
func (c *Cache) sync() {
	w := c.w
	g := w.Graph() // materialized once, then grown in place by the builder
	for i := c.edgeCount; i < len(w.Edges); i++ {
		e := &w.Edges[i]
		switch e.Kind {
		case wcg.EdgeRequest:
			switch e.Method {
			case wcg.MethodGET:
				c.gets++
			case wcg.MethodPOST:
				c.posts++
			default:
				c.other++
			}
			if e.Referred {
				c.refSet++
			} else {
				c.refEmpty++
			}
			c.uriLenSum += int(e.URILen)
			c.uriCount++
			// f37 walks consecutive request-edge times in edge order,
			// zero times included, exactly like Summarize.
			if c.reqCount > 0 {
				d := wcg.Sub(e.Time, c.lastReq)
				if d < 0 {
					d = -d
				}
				c.gapSum += d
			}
			c.lastReq = e.Time
			c.reqCount++
		case wcg.EdgeResponse:
			switch {
			case e.StatusCode >= 100 && e.StatusCode < 200:
				c.h10++
			case e.StatusCode >= 200 && e.StatusCode < 300:
				c.h20++
			case e.StatusCode >= 300 && e.StatusCode < 400:
				c.h30++
			case e.StatusCode >= 400 && e.StatusCode < 500:
				c.h40++
			case e.StatusCode >= 500 && e.StatusCode < 600:
				c.h50++
			}
		}
		if e.Time != wcg.NoTime {
			if c.first == wcg.NoTime || e.Time < c.first {
				c.first = e.Time
			}
			c.last = max(c.last, e.Time)
		}
		// Only the endpoints of new edges can raise the max multigraph
		// degree; g already contains every appended edge.
		if d := g.Degree(int(e.From)); d > c.maxDegree {
			c.maxDegree = d
		}
		if d := g.Degree(int(e.To)); d > c.maxDegree {
			c.maxDegree = d
		}
	}
	c.edgeCount = len(w.Edges)

	n := g.N()
	m := g.M()
	c.v[0] = boolFeature(w.OriginKnown)
	c.v[1] = boolFeature(w.XFlashVersion != "")
	c.v[2] = float64(len(w.Edges))
	hosts, uris := w.HostURIStats()
	c.v[3] = float64(hosts)
	c.v[4] = 0
	if hosts > 0 {
		c.v[4] = float64(uris) / float64(hosts)
	}
	c.v[5] = 0
	if c.uriCount > 0 {
		c.v[5] = float64(c.uriLenSum) / float64(c.uriCount)
	}

	c.v[6] = float64(n)
	c.v[7] = float64(m)
	c.v[8] = float64(c.maxDegree)
	pairs, recip := w.SimpleEdgeStats()
	c.v[9] = 0
	if n >= 2 {
		c.v[9] = float64(pairs) / float64(n*(n-1))
	}
	c.v[10] = float64(2 * m)
	c.v[12] = 0
	if n > 0 {
		c.v[12] = float64(m) / float64(n)
	}
	c.v[13] = c.v[12] // avg out-degree equals avg in-degree (M/N)
	c.v[14] = 0
	if pairs > 0 {
		c.v[14] = float64(recip) / float64(pairs)
	}

	c.v[25] = float64(c.gets)
	c.v[26] = float64(c.posts)
	c.v[27] = float64(c.other)
	c.v[28] = float64(c.h10)
	c.v[29] = float64(c.h20)
	c.v[30] = float64(c.h30)
	c.v[31] = float64(c.h40)
	c.v[32] = float64(c.h50)
	c.v[33] = float64(c.refSet)
	c.v[34] = float64(c.refEmpty)

	reqs := c.gets + c.posts + c.other
	var dur time.Duration
	if c.first != wcg.NoTime {
		dur = wcg.Sub(c.last, c.first)
	}
	c.v[35] = 0
	if reqs > 0 {
		c.v[35] = dur.Seconds() / float64(reqs)
	}
	c.v[36] = 0
	if c.reqCount > 1 {
		c.v[36] = (c.gapSum / time.Duration(c.reqCount-1)).Seconds()
	}

	var ts graph.TopologyStats
	if c.gfValid {
		ts, c.change = c.topo.Update(g, c.scratch)
	} else {
		ts, c.change = c.topo.Recompute(g, knnRadius, c.scratch), graph.Recomputed
		c.gfValid = true
	}
	if c.change != graph.Unchanged {
		c.topoRuns++
		c.setTopology(ts, n, g.UndirectedM())
	}
}

// setTopology writes the topology slots. Three are served as their closed
// forms (DESIGN.md §8, EXPERIMENTS.md divergence 3), each an integer
// ratio rounded once: f16 Avg-Degree-Centrality is 2·pairs/(n(n−1)) over
// the undirected simple pairs, f18 Avg-Betweenness-Centrality is the
// sweep's Σ(d−1)/(n(n−1)(n−2)) (f19 Avg-Load-Centrality is the same sum
// under the same normalisation), and f25 Avg-PageRank is 1/n.
func (c *Cache) setTopology(ts graph.TopologyStats, n, pairs int) {
	c.v[11] = float64(ts.Diameter)
	c.v[15] = 0
	if n >= 2 {
		c.v[15] = float64(2*pairs) / float64(n*(n-1))
	}
	c.v[16] = ts.Closeness
	c.v[17] = ts.Betweenness
	c.v[18] = ts.Betweenness
	c.v[19] = float64(ts.Connectivity)
	c.v[20] = ts.Clustering
	c.v[21] = ts.NeighborDegree
	c.v[22] = ts.DegreeConnectivity
	c.v[23] = ts.WithinK
	c.v[24] = 0
	if n > 0 {
		c.v[24] = 1 / float64(n)
	}
}

// TopologyRuns is the number of syncs since NewCache or Reset that
// refreshed the topology slots, by a leaf update or a full recompute —
// the kinds of classification that cost more than O(new edges).
func (c *Cache) TopologyRuns() uint64 { return c.topoRuns }
