package httpstream

import (
	"fmt"
	"sync"
	"testing"
)

// TestParallelStreamExtraction parses independent conversations from many
// goroutines at once. Extraction keeps all state on the stack, so parallel
// captures (one per worker in a sharded deployment) must never interfere;
// under -race this guards against any hidden package-level scratch state
// creeping into the parser.
func TestParallelStreamExtraction(t *testing.T) {
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			uri := fmt.Sprintf("/worker/%d/page.html", g)
			req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: w%d.example.com\r\n\r\n", uri, g)
			resp := "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"
			for i := 0; i < iters; i++ {
				c2s, s2c := buildConv(req, resp)
				txs := ExtractPairInto(nil, c2s, s2c, nil)
				if len(txs) != 1 {
					errs <- fmt.Errorf("worker %d iter %d: %d transactions, want 1", g, i, len(txs))
					return
				}
				tx := txs[0]
				if tx.URI != uri || tx.Host != fmt.Sprintf("w%d.example.com", g) || tx.StatusCode != 200 {
					errs <- fmt.Errorf("worker %d iter %d: cross-talk in parsed transaction: %+v", g, i, tx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
