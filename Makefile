GO ?= go

.PHONY: all build tier1 tier2 benchcheck benchpair chaos fuzz loc

all: tier1

build:
	$(GO) build ./...

# Tier 1: the correctness gate every change must keep green.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# The wire-to-verdict benchmark under bench/ is its own module, so
# `go test ./...` at the root never compiles it: an API rename can pass
# tier 1 and still break the benchmark. This vets and tests it (~3 s).
# GOGC=400: at the tests' 1/20 scale the whole heap sits under Go's 4 MB
# minimum, where the ~0.5 MB the traced run's collect-forms allocate beyond
# the streaming pass starts a collection inside every traced 2 ms pass and
# inside no untraced one — TestContractNames' layer-sum ratio then reads the
# collector (1.2-2.5) instead of the layers (0.66-1.46 over 240 runs with
# the collector held off on both sides). ROADMAP item 5(c) removes the cause.
benchcheck:
	cd bench && $(GO) vet ./... && GOGC=400 $(GO) test ./...

# Paired benchmark runs of PARENT (a git revision) against the working
# tree: PAIRS alternating pairs per workload, a markdown table per
# workload on stdout (see tools/benchpair.sh). A performance claim, and
# the spread check that precedes submitting one, are read off this.
PARENT ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
benchpair:
	bash tools/benchpair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Non-test Go lines of the root package and internal/: the count
# ROADMAP item 4 ("One of everything") tracks against its target.
loc:
	@(ls *.go | grep -v _test; find internal -name '*.go' -not -name '*_test.go') | xargs cat | wc -l

# Tier 2: vet plus the race-detector stress suites for every package
# that spawns goroutines (the root package covers the monitor checkpointer,
# internal/proxy the retry/breaker paths and the backoff jitter's own
# lock, internal/chaos the fault-injection soak, internal/obs the admin
# server and sharded counters) and for internal/pcap, whose streams alias
# buffers that are
# recycled under them. internal/graph and internal/ml are not on the list
# because they start no goroutine. Slower; run before touching engine or
# proxy locking.
tier2:
	$(GO) vet ./...
	$(GO) test -race . ./cmd/dynaminer ./internal/detector ./internal/proxy ./internal/httpstream ./internal/pcap ./internal/chaos ./internal/obs

# Chaos: the deterministic fault-injection soak (fixed seeds, see
# internal/chaos and DESIGN.md "Fault tolerance"): seeded synth episodes
# through the sharded engine and the proxy under injected panics, NaN
# scores, transport faults, and transaction damage. Asserts zero crashes,
# conserved stats counters, and a bit-identical fault-free replay.
chaos:
	$(GO) test -race -count 1 -v -run 'TestChaosSoak' ./internal/chaos

# Fuzz smoke: run each httpstream parser fuzz target for FUZZTIME on top
# of the checked-in seed corpus (testdata/fuzz), plus the frame decoder,
# the capture readers (streaming against collecting, with an allocation
# ceiling), the DMCP checkpoint reader (allocation ceiling; the info view
# and restore succeed or fail together, on the same cluster count), the
# alert journal's torn-tail recovery (allocation ceiling, a cut journal
# reads as its whole records), the DMFB blob loader against its recursive test oracle (allocation
# ceiling), the body sniffer's two
# differentials against its regexp-only reference (each with an allocation
# ceiling) and the topology differential, Topology.Recompute against the
# plain graph kernels, which live only as the test oracle in
# internal/graph/plain_ref_test.go (every slot bit for bit, except mean
# betweenness: its oracle is the integer closed form, checked against
# plain Brandes to within 1e-9), which in its "graph, then one edit"
# mode also holds a Topology updated through the edit to the plain
# oracle on the edited graph, bit for bit. The three HTTP parser targets run the
# in-place parser in lockstep with its net/http oracle
# (internal/httpstream/parse_ref_test.go). Every target caps its minimizer
# at 1s: left at the default minute per new-coverage input, the minimizer
# stalled a 10 s smoke after ~3 s.
# Regenerate the synth seeds with DYNAMINER_WRITE_FUZZ_CORPUS=1 go test
# ./internal/synth.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/pcap -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/pcap -run '^$$' -fuzz '^FuzzReadAllAuto$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/httpstream -run '^$$' -fuzz '^FuzzParseRequests$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/httpstream -run '^$$' -fuzz '^FuzzParseResponses$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/httpstream -run '^$$' -fuzz '^FuzzExtractPair$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/detector -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/ml -run '^$$' -fuzz '^FuzzLoadFlatBlob$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/wcg -run '^$$' -fuzz '^FuzzDeobfuscate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/wcg -run '^$$' -fuzz '^FuzzSniffBodyRedirects$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzPathStats$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
