package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"time"

	"dynaminer"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
)

// spec is one named workload: how its corpus is generated from the seed
// and which entry point of the engine it drives.
type spec struct {
	name string
	why  string
	// wire workloads feed one rendered capture to Monitor.ProcessPCAP;
	// the others feed in-memory transactions to Monitor.Process.
	wire  bool
	build func(seed int64, scale int) []client
}

// Sizes are for scale 1; workloads_test.go runs scale 20 (a twentieth of
// the work). They are chosen so one pass takes about a second on two cores,
// which lets a ten-second run take its medians over several passes.
var specs = []spec{
	{
		name: "wire_mixed",
		why:  "one big-body capture of interleaved clients: bytes dominate, so body parsing and body sniffing do most of the work",
		wire: true,
		build: func(seed int64, scale int) []client {
			return synthClients(seed, mix{infectionTxs: 1700 / scale, benignTxs: 1600 / scale, window: 30 * time.Minute, weight: bodyBytes, perTx: 18000})
		},
	},
	{
		name: "wire_small",
		why:  "same construction with bodies capped at 128 B: per-packet, per-conversation and per-transaction cost dominate, body cost is nil",
		wire: true,
		build: func(seed int64, scale int) []client {
			return synthClients(seed, mix{infectionTxs: 2800 / scale, benignTxs: 4100 / scale, window: 30 * time.Minute, bodyCap: 128, weight: hosts, perTx: 0.51})
		},
	},
	{
		name: "watch_chain",
		why:  "in-memory infected clients whose watched graph grows by 295 call-backs: re-classification does the work, capture layers do none",
		build: func(seed int64, scale int) []client {
			return chainClients(seed, max(64/scale, 2))
		},
	},
	{
		name: "benign_stream",
		why:  "in-memory benign browsing over six hours: the detector's fast path and cluster create/evict churn, classify share under 1%",
		build: func(seed int64, scale int) []client {
			return synthClients(seed, mix{benignTxs: 136000 / scale, window: 6 * time.Hour})
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// verdict is what the benchmark checks per client episode: whether the
// engine alerted on it and which host served the payload of its first
// alert.
type verdict struct {
	alerted bool
	host    string
}

// client is one episode: the unit of work whose verdict is checked.
type client struct {
	ip       netip.Addr
	infected bool
	txs      []dynaminer.Transaction // the episode as generated, in request order
	want     verdict                 // the oracle's verdict, set by corpus.oracle
}

// corpus is a workload's fixed input, generated once per set-up and
// replayed by every pass.
type corpus struct {
	spec     spec
	clients  []client
	byIP     map[netip.Addr]int
	numTxs   int
	infected int

	stream  []dynaminer.Transaction // in-memory workloads: all clients merged by ReqTime
	capture []byte                  // wire workloads: one classic pcap
	packets int
}

// epoch anchors every generated timestamp. Capture timestamps have
// microsecond resolution, so generated times are truncated to it: the
// in-memory episode the oracle sees then equals what the wire carries.
var epoch = time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)

func clientIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(1 + i>>16), byte(i >> 8), byte(i)})
}

// mix parameterizes a corpus drawn from the repo's episode generator.
type mix struct {
	// Budgets in transactions, not episodes: episode sizes are heavy-tailed,
	// so a fixed episode count lets the amount of work swing by several
	// percent from seed to seed, which no later change could be told from.
	infectionTxs, benignTxs int
	// window is what every episode's start is re-based into, uniformly, so
	// the clients interleave.
	window time.Duration
	// bodyCap > 0 caps the declared size of every response that carries no
	// explicit content (landing pages keep theirs).
	bodyCap int
	// weight is the second quantity an episode's cost grows with and perTx
	// how much of it the corpus holds per transaction. An episode that would
	// pull the running total more than 1% of the whole away from that
	// proportion is passed over. nil leaves it to chance.
	weight func(*synth.Episode) int
	perTx  float64
}

// bodyBytes is the response-body volume an episode renders to.
func bodyBytes(ep *synth.Episode) int {
	n := 0
	for i := range ep.Txs {
		n += min(max(ep.Txs[i].BodySize, len(ep.Txs[i].Body)), 64<<10)
	}
	return n
}

// hosts is the number of TCP conversations an episode renders to.
func hosts(ep *synth.Episode) int {
	seen := make(map[string]struct{})
	for i := range ep.Txs {
		seen[strings.ToLower(ep.Txs[i].Host)] = struct{}{}
	}
	return len(seen)
}

// synthClients draws episodes from the generator until each class holds
// its budget, gives each its own client address and re-bases its start.
// The seed still decides every episode; the budgets only keep the amount
// of work steady from seed to seed.
func synthClients(seed int64, m mix) []client {
	// A pool three times what the budgets need, so passing over leaves
	// enough: infections average 28 transactions, benign episodes 14.
	pool := synth.GenerateCorpus(synth.Config{Seed: seed, Infections: m.infectionTxs/9 + 1, Benign: m.benignTxs/5 + 1})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	left := map[bool]int{true: m.infectionTxs, false: m.benignTxs}
	whole := m.perTx * float64(m.infectionTxs+m.benignTxs)
	off := 0.0 // weight admitted beyond its proportion
	var clients []client
	for i := range pool {
		ep := &pool[i]
		if len(ep.Txs) > left[ep.Infection] {
			continue // does not fit; a smaller episode later may
		}
		if m.weight != nil {
			next := off + float64(m.weight(ep)) - m.perTx*float64(len(ep.Txs))
			if math.Abs(next) > 0.01*whole && math.Abs(next) > math.Abs(off) {
				continue
			}
			off = next
		}
		left[ep.Infection] -= len(ep.Txs)
		ip := clientIP(len(clients))
		shift := epoch.Add(time.Duration(rng.Int63n(int64(m.window)))).Sub(ep.Txs[0].ReqTime)
		for j := range ep.Txs {
			tx := &ep.Txs[j]
			tx.ClientIP = ip
			tx.ReqTime = tx.ReqTime.Add(shift).Truncate(time.Microsecond)
			tx.RespTime = tx.RespTime.Add(shift).Truncate(time.Microsecond)
			if m.bodyCap > 0 && len(tx.Body) == 0 && tx.BodySize > m.bodyCap {
				tx.BodySize = m.bodyCap
			}
		}
		clients = append(clients, client{ip: ip, infected: ep.Infection, txs: ep.Txs})
	}
	return clients
}

// chainClients builds infected clients by hand: a 3-hop 302 chain, an EXE
// download that arms the watch, then 295 POST call-backs 400 ms apart, a
// quarter of them (the first, and 73 the seed picks) to a host the client
// has not contacted before. Nearly every transaction therefore
// re-classifies a growing watched graph, and the new-host quarter is what
// moves the graph's topology.
func chainClients(seed int64, n int) []client {
	const callbacks, newHosts = 295, 74
	rng := rand.New(rand.NewSource(seed))
	ua := "Mozilla/5.0 (Windows NT 6.1; WOW64; Trident/7.0; rv:11.0) like Gecko"
	clients := make([]client, n)
	for i := range clients {
		ip := clientIP(i)
		now := epoch.Add(time.Duration(rng.Int63n(int64(2 * time.Minute)))).Truncate(time.Microsecond)
		txs := make([]dynaminer.Transaction, 0, 4+callbacks)
		add := func(method, host, uri, referer string, status int, ctype, location string) {
			req, resp := http.Header{}, http.Header{}
			req.Set("User-Agent", ua)
			if referer != "" {
				req.Set("Referer", referer)
			}
			if location != "" {
				resp.Set("Location", location)
			}
			if ctype != "" {
				resp.Set("Content-Type", ctype)
			}
			txs = append(txs, dynaminer.Transaction{
				ClientIP: ip, ServerIP: serverIP(host), ClientPort: 50000, ServerPort: 80,
				Method: method, URI: uri, Host: host, ReqHdr: req, ReqTime: now,
				StatusCode: status, RespHdr: resp, RespTime: now.Add(40 * time.Millisecond),
				ContentType: ctype, BodySize: 64,
			})
		}
		hops := make([]string, 4)
		for h := range hops {
			hops[h] = fmt.Sprintf("gate%d-%d-%x.example", h, i, rng.Uint32())
		}
		referer := ""
		for h := 0; h < 3; h++ {
			uri := fmt.Sprintf("/gate.php?id=%06x", rng.Intn(1<<24))
			add("GET", hops[h], uri, referer, 302, "", "http://"+hops[h+1]+"/gate.php")
			referer = "http://" + hops[h] + uri
			now = now.Add(100 * time.Millisecond)
		}
		add("GET", hops[3], fmt.Sprintf("/%08x.exe", rng.Uint32()), referer, 200, "application/x-msdownload", "")
		fresh := map[int]bool{0: true}
		for _, k := range rng.Perm(callbacks - 1)[:newHosts-1] {
			fresh[k+1] = true
		}
		var cnc []string
		for k := 0; k < callbacks; k++ {
			now = now.Add(400 * time.Millisecond)
			if fresh[k] {
				cnc = append(cnc, fmt.Sprintf("185.%d.%d.%d", rng.Intn(256), rng.Intn(256), 1+rng.Intn(254)))
				add("POST", cnc[len(cnc)-1], "/gate.php", "", 200, "text/plain", "")
			} else {
				add("POST", cnc[rng.Intn(len(cnc))], "/gate.php", "", 200, "text/plain", "")
			}
		}
		clients[i] = client{ip: ip, infected: true, txs: txs}
	}
	return clients
}

// serverIP derives a stable public address for a host name.
func serverIP(host string) netip.Addr {
	var h uint32 = 2166136261
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return netip.AddrFrom4([4]byte{198, 18, byte(h >> 8), byte(h)})
}

// newCorpus generates the workload's input for seed and, for a wire
// workload, renders it into one capture.
func newCorpus(s spec, seed int64, scale int) (*corpus, error) {
	clients := s.build(seed, scale)
	c := &corpus{spec: s, clients: clients, byIP: make(map[netip.Addr]int, len(clients))}
	for i := range clients {
		c.byIP[clients[i].ip] = i
		c.numTxs += len(clients[i].txs)
		if clients[i].infected {
			c.infected++
		}
	}
	if s.wire {
		var err error
		c.capture, c.packets, err = render(clients)
		return c, err
	}
	c.stream = make([]dynaminer.Transaction, 0, c.numTxs)
	for i := range clients {
		c.stream = append(c.stream, clients[i].txs...)
	}
	sort.SliceStable(c.stream, func(i, j int) bool { return c.stream[i].ReqTime.Before(c.stream[j].ReqTime) })
	return c, nil
}

// render writes every client's conversations into one classic pcap. It
// merges packets with one stable sort: pcap.WriteConversations merges by
// insertion sort, which is quadratic once hundreds of clients interleave.
func render(clients []client) (capture []byte, packets int, err error) {
	var all []pcap.Packet
	size := 24
	for i := range clients {
		ep := synth.Episode{Txs: clients[i].txs}
		for _, conv := range ep.Conversations() {
			pkts, err := pcap.BuildConversation(conv)
			if err != nil {
				return nil, 0, fmt.Errorf("render client %s: %w", clients[i].ip, err)
			}
			for _, p := range pkts {
				size += 16 + len(p.Data)
			}
			all = append(all, pkts...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp.Before(all[j].Timestamp) })
	buf := bytes.NewBuffer(make([]byte, 0, size))
	w := pcap.NewWriter(buf)
	for _, p := range all {
		if err := w.WritePacket(p); err != nil {
			return nil, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(all), nil
}

// oracle computes each client's reference verdict: the episode's own
// transactions, alone, through a one-shard engine that rebuilds every
// graph from scratch. The measured engine (two shards, incremental, all
// clients interleaved, and for wire workloads fed from rendered bytes) must
// reach the same verdict. A verdict is settled by the first alert, so the
// oracle stops there: the from-scratch path is quadratic in a watched
// graph's growth.
func (c *corpus) oracle(model *dynaminer.Classifier) {
	for i := range c.clients {
		cl := &c.clients[i]
		mon := dynaminer.NewMonitor(dynaminer.MonitorConfig{
			RedirectThreshold: redirectThreshold, Shards: 1, DisableIncremental: true,
		}, model)
		for j := 0; j < len(cl.txs) && !cl.want.alerted; j++ {
			if alerts := mon.Process(cl.txs[j]); len(alerts) > 0 {
				cl.want = verdict{alerted: true, host: alerts[0].TriggerHost}
			}
		}
	}
}
