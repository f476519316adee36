package graph

// flowArc is one residual arc of the vertex-split flow network.
type flowArc struct {
	to, rev int
	cap     int
}

// flowWS holds the Dinic max-flow state for localNodeConnectivityS. The
// arc lists, level/iterator arrays, and BFS queue are reused across the
// O(n·deg) flow computations one nodeConnectivity call performs — and, via
// Scratch, across every call on that scratch.
type flowWS struct {
	arcs  [][]flowArc
	level []int
	iter  []int
	queue []int
}

// size readies the workspace for a flow network of nn split nodes,
// retaining per-node arc capacity from earlier, larger runs.
func (ws *flowWS) size(nn int) {
	if len(ws.arcs) < nn {
		grown := make([][]flowArc, nn)
		copy(grown, ws.arcs)
		ws.arcs = grown
	}
	ws.level = grow(ws.level, nn)
	ws.iter = grow(ws.iter, nn)
	ws.queue = grow(ws.queue, nn)[:0]
	for i := 0; i < nn; i++ {
		ws.arcs[i] = ws.arcs[i][:0]
	}
}

func (ws *flowWS) addArc(u, v, c int) {
	ws.arcs[u] = append(ws.arcs[u], flowArc{to: v, rev: len(ws.arcs[v]), cap: c})
	ws.arcs[v] = append(ws.arcs[v], flowArc{to: u, rev: len(ws.arcs[u]) - 1, cap: 0})
}

func (ws *flowWS) bfs(src, sink, nn int) bool {
	level := ws.level
	for i := 0; i < nn; i++ {
		level[i] = -1
	}
	level[src] = 0
	queue := ws.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range ws.arcs[u] {
			if a.cap > 0 && level[a.to] < 0 {
				level[a.to] = level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	ws.queue = queue
	return level[sink] >= 0
}

func (ws *flowWS) dfs(u, sink, f int) int {
	if u == sink {
		return f
	}
	for ; ws.iter[u] < len(ws.arcs[u]); ws.iter[u]++ {
		a := &ws.arcs[u][ws.iter[u]]
		if a.cap > 0 && ws.level[a.to] == ws.level[u]+1 {
			got := f
			if a.cap < got {
				got = a.cap
			}
			if d := ws.dfs(a.to, sink, got); d > 0 {
				a.cap -= d
				ws.arcs[a.to][a.rev].cap += d
				return d
			}
		}
	}
	return 0
}

// localNodeConnectivityS computes the maximum number of internally
// node-disjoint paths between s and t via unit-capacity max-flow (Dinic)
// on the vertex-split graph, in the reusable workspace: node u becomes
// u_in (2u) and u_out (2u+1) joined by a unit arc; each undirected edge
// {u,v} becomes arcs u_out->v_in and v_out->u_in.
func localNodeConnectivityS(adj [][]int, s, t int, ws *flowWS) int {
	n := len(adj)
	nn := 2 * n
	ws.size(nn)
	inN := func(u int) int { return 2 * u }
	outN := func(u int) int { return 2*u + 1 }
	for u := 0; u < n; u++ {
		c := 1
		if u == s || u == t {
			c = n // endpoints are not removable
		}
		ws.addArc(inN(u), outN(u), c)
		for _, v := range adj[u] {
			ws.addArc(outN(u), inN(v), n)
		}
	}
	// Dinic's algorithm.
	src, sink := outN(s), inN(t)
	flow := 0
	for ws.bfs(src, sink, nn) {
		for i := 0; i < nn; i++ {
			ws.iter[i] = 0
		}
		for {
			f := ws.dfs(src, sink, n)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}
