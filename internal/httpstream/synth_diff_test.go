package httpstream_test

import (
	"reflect"
	"testing"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
)

// TestInPlaceParseMatchesOracleOnSynthCorpus renders every conversation of
// a 180-episode synth corpus to its two directions and requires the
// in-place parser's transactions to be DeepEqual to the net/http oracle's.
func TestInPlaceParseMatchesOracleOnSynthCorpus(t *testing.T) {
	convs, txs := 0, 0
	for i, ep := range synth.GenerateCorpus(synth.Config{Seed: 1, Infections: 90, Benign: 90}) {
		for _, conv := range ep.Conversations() {
			key := pcap.FlowKey{SrcIP: conv.ClientIP, DstIP: conv.ServerIP, SrcPort: conv.ClientPort, DstPort: conv.ServerPort}
			c2s, s2c := &pcap.Stream{Key: key}, &pcap.Stream{Key: key.Reverse()}
			for _, ex := range conv.Exchanges {
				if ex.ClientToServer {
					c2s.Data = append(c2s.Data, ex.Payload...)
				} else {
					s2c.Data = append(s2c.Data, ex.Payload...)
				}
			}
			got := httpstream.ExtractPairInto(nil, c2s, s2c, nil)
			if want := httpstream.RefExtractPair(c2s, s2c); !reflect.DeepEqual(got, want) {
				t.Fatalf("episode %d (%s), conversation with %v: the in-place parse differs from the oracle", i, ep.Family, key)
			}
			convs++
			txs += len(got)
		}
	}
	t.Logf("%d conversations, %d transactions", convs, txs)
	if txs == 0 {
		t.Fatal("the corpus yielded no transactions")
	}
}
