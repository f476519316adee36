package graph

import (
	"math"
	"sort"
)

// The extended measures behind the A7 ablation (features.ExtractExtended).
// They read the Scratch's cached projections and run the shortest-path
// sweep's BFS, so after the feature extraction on the same scratch they
// rebuild nothing. Their results are freshly allocated: A7 is an offline
// experiment, not the wire path.

// eccentricity is the greatest distance the last bfs reached: its queue
// holds the reached nodes in nondecreasing distance.
func (s *Scratch) eccentricity() int { return s.dist[s.queue[len(s.queue)-1]] }

// Eccentricities returns, for each node, the greatest shortest-path
// distance to any node reachable from it in the undirected simple
// projection. Isolated nodes have eccentricity 0.
func (g *Digraph) Eccentricities(s *Scratch) []int {
	adj := s.undirected(g)
	s.sizeSweep(len(adj))
	ecc := make([]int, len(adj))
	for u := range adj {
		s.bfs(adj, u)
		ecc[u] = s.eccentricity()
	}
	return ecc
}

// Radius is the minimum eccentricity over the largest weakly connected
// component (the standard definition restricted to stay finite on
// fragmented conversation graphs); of equally large components, the one
// holding the smallest node id counts. Zero when that component has fewer
// than two nodes.
func (g *Digraph) Radius(s *Scratch) int {
	adj := s.undirected(g)
	n := len(adj)
	s.sizeSweep(n)
	s.marks = grow(s.marks, n)
	clear(s.marks)
	// Components are met in order of their smallest node; a strictly
	// larger one replaces the best so far.
	root, size := 0, 0
	for src := range adj {
		if s.marks[src] {
			continue
		}
		s.bfs(adj, src)
		for _, v := range s.queue {
			s.marks[v] = true
		}
		if len(s.queue) > size {
			root, size = src, len(s.queue)
		}
	}
	if size < 2 {
		return 0
	}
	radius := n
	for u := range adj {
		s.bfs(adj, u)
		if s.dist[root] >= 0 { // u is in root's component
			radius = min(radius, s.eccentricity())
		}
	}
	return radius
}

// StronglyConnectedComponents returns the SCCs of the directed simple
// projection via Tarjan's algorithm (iterative), largest first.
func (g *Digraph) StronglyConnectedComponents(s *Scratch) [][]int {
	adj := s.directed(g)
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		comps   [][]int
	)

	type frame struct {
		v, childIdx int
	}
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{v: start}}
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.childIdx == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.childIdx < len(adj[v]) {
				w := adj[v][f.childIdx]
				f.childIdx++
				if index[w] == unvisited {
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop an SCC if v is a root.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// CoreNumbers returns the k-core number of every node in the undirected
// simple projection: the largest k such that the node belongs to a
// subgraph where every node has degree >= k (Batagelj-Zaveršnik peeling).
func (g *Digraph) CoreNumbers(s *Scratch) []int {
	adj := s.undirected(g)
	n := len(adj)
	deg := make([]int, n)
	maxDeg := 0
	for u := range adj {
		deg[u] = len(adj[u])
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	bins := make([]int, maxDeg+2)
	for _, d := range deg {
		bins[d]++
	}
	startIdx := 0
	for d := 0; d <= maxDeg; d++ {
		count := bins[d]
		bins[d] = startIdx
		startIdx += count
	}
	pos := make([]int, n)
	vert := make([]int, n)
	for u := 0; u < n; u++ {
		pos[u] = bins[deg[u]]
		vert[pos[u]] = u
		bins[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bins[d] = bins[d-1]
	}
	bins[0] = 0

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range adj[v] {
			if core[u] > core[v] {
				// Move u one bucket down.
				du := core[u]
				pu := pos[u]
				pw := bins[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bins[du]++
				core[u]--
			}
		}
	}
	return core
}

// Degeneracy is the maximum core number (the graph's degeneracy).
func (g *Digraph) Degeneracy(s *Scratch) int {
	best := 0
	for _, c := range g.CoreNumbers(s) {
		if c > best {
			best = c
		}
	}
	return best
}

// DegreeAssortativity is the Pearson correlation of degrees across the
// undirected simple edges (Newman's assortativity coefficient). Zero for
// graphs without at least two edges or with constant degree.
func (g *Digraph) DegreeAssortativity(s *Scratch) float64 {
	adj := s.undirected(g)
	var xs, ys []float64
	for u := range adj {
		for _, v := range adj[u] {
			if v > u {
				xs = append(xs, float64(len(adj[u])))
				ys = append(ys, float64(len(adj[v])))
				// Count both orientations for symmetry.
				xs = append(xs, float64(len(adj[v])))
				ys = append(ys, float64(len(adj[u])))
			}
		}
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
