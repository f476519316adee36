package features

import "dynaminer/internal/graph"

// LastChange is how the last sync classified the change to the WCG's
// undirected simple projection.
func (c *Cache) LastChange() graph.Change { return c.change }
