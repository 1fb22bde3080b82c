// httpload.go is the façade-side service harness: the workload-fleet seam's
// real half. Where RunTenants drives the packet-modeled open-loop fleet,
// RunHTTPLoad runs an actual net/http echo/fan-out service — stock
// http.Server, stock http.Client — as tenants over the simulated fabric
// through the simnet façade (DESIGN.md §2.9). The pairing, ports, phase
// layout and SLO aggregation are shared with the modeled fleet, so the two
// halves of the seam report through the same TenantResult shape and the same
// ServiceFleet aggregation path; results are bit-identical at any shard or
// worker count.
package experiment

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/flow"
	"repro/internal/simnet"
	"repro/internal/units"
)

// HTTPFanEvery makes every n-th exchange of each client a fan-out request:
// the pair's server answers it only after fetching a block from each of its
// neighbor pairs' servers, so the measured latency includes real nested HTTP
// over the fabric (the modeled fleet has no analogue — this is the façade
// exercising what only real tenant code can express).
const HTTPFanEvery = 4

// httpFleet is the real half of the ServiceFleet seam: per pair, one
// unmodified http.Server on the server node and one paced http.Client on the
// client node, wired to the fabric only through the façade's Listener and
// DialContext. Unlike the modeled fleet the clients are closed-loop — a real
// http.Client blocks in Do — but paced on the modeled fleet's absolute issue
// schedule, so an exchange that overruns its interval delays its successors
// (a queueing signature the SLO windows are meant to expose, not hide).
//
// The mutex guards the counters tenant goroutines update against the control
// engine's reads (the drain predicate polls Outstanding between events, the
// aggregation reads Exchanges after the run). Tenant code never runs while a
// control event does, but the race detector wants the edge explicit.
type httpFleet struct {
	mu          sync.Mutex
	stopped     bool
	outstanding int
	clients     []*httpFleetClient
}

// httpFleetClient is one pair's record: completed exchanges in issue order,
// plus the issue times of exchanges still unanswered at drain cutoff.
type httpFleetClient struct {
	results []flow.RPCResult
	pending []units.Time
}

// Stop closes every client's issue loop; exchanges in flight still finish.
func (f *httpFleet) Stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
}

// Outstanding returns the number of issued-but-unanswered exchanges.
func (f *httpFleet) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.outstanding
}

// Exchanges flattens the per-client records in pair order — the same
// deterministic order the modeled fleet reports in.
func (f *httpFleet) Exchanges() ([]flow.RPCResult, []units.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var results []flow.RPCResult
	var cut []units.Time
	for _, cl := range f.clients {
		results = append(results, cl.results...)
		cut = append(cut, cl.pending...)
	}
	return results, cut
}

// startHTTPFleet installs the echo/fan-out service and its clients. Pairing
// mirrors flow.StartFleet exactly: pair i's client runs on host i mod N, its
// server on the opposite side of the cluster, its port is FleetBasePort+i,
// and client starts are staggered uniformly over one interval. Control
// context (inside the start event); the caller settles the net afterwards.
func startHTTPFleet(c *cluster.Cluster, w WorkloadConfig, at units.Time) *httpFleet {
	n := c.Net
	nhosts := len(c.Stacks)
	f := &httpFleet{clients: make([]*httpFleetClient, w.RPCClients)}

	type pair struct {
		clientNode, serverNode int
		port                   uint16
	}
	pairs := make([]pair, w.RPCClients)
	for i := range pairs {
		clientNode := i % nhosts
		serverNode := (i + nhosts/2) % nhosts
		if serverNode == clientNode {
			serverNode = (serverNode + 1) % nhosts
		}
		pairs[i] = pair{clientNode, serverNode, FleetBasePort + uint16(i)}
		f.clients[i] = &httpFleetClient{}
	}
	echoURL := func(i int) string {
		return fmt.Sprintf("http://host%d:%d/echo", pairs[i].serverNode, pairs[i].port)
	}

	respBody := bytes.Repeat([]byte("r"), w.RPCRespSize)
	reqBody := bytes.Repeat([]byte("q"), w.RPCReqSize)

	for i := range pairs {
		i := i
		p := pairs[i]

		// The pair's fan-out backends: its neighbor pairs' echo endpoints.
		// Every (frontend node, backend address) combination across the fleet
		// is distinct, so concurrent fan-out dials never race for conn
		// identity (DESIGN.md §2.9's dial-distinctness discipline).
		var backends []string
		for _, j := range []int{(i + 1) % w.RPCClients, (i + w.RPCClients - 1) % w.RPCClients} {
			if j != i && !(len(backends) == 1 && backends[0] == echoURL(j)) {
				backends = append(backends, echoURL(j))
			}
		}

		// Server tenant: a stock http.Server on the pair's listener. Serve
		// returns when Shutdown fails its Accept after the run.
		n.Go(func() {
			l, err := n.Listen("sim", fmt.Sprintf("host%d:%d", p.serverNode, p.port))
			if err != nil {
				return
			}
			backendClient := &http.Client{Transport: &http.Transport{
				DialContext:       n.DialContext,
				DisableKeepAlives: true,
			}}
			mux := http.NewServeMux()
			mux.HandleFunc("/echo", func(rw http.ResponseWriter, r *http.Request) {
				rw.Header()["Date"] = nil // keep the wall clock off the wire
				io.Copy(io.Discard, r.Body)
				rw.Write(respBody)
			})
			mux.HandleFunc("/fanout", func(rw http.ResponseWriter, r *http.Request) {
				rw.Header()["Date"] = nil
				io.Copy(io.Discard, r.Body)
				for _, url := range backends {
					req, err := http.NewRequestWithContext(
						simnet.WithSource(context.Background(), p.serverNode),
						http.MethodPost, url, bytes.NewReader(reqBody))
					if err != nil {
						http.Error(rw, err.Error(), http.StatusInternalServerError)
						return
					}
					resp, err := backendClient.Do(req)
					if err != nil {
						http.Error(rw, err.Error(), http.StatusBadGateway)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				rw.Write(respBody)
			})
			srv := &http.Server{Handler: mux}
			srv.Serve(l)
		})

		// Client tenant: paced exchanges on the modeled fleet's schedule.
		stagger := units.Duration(uint64(w.RPCInterval) * uint64(i) / uint64(w.RPCClients))
		first := at.Add(stagger)
		n.Go(func() {
			f.runClient(n, f.clients[i], p.clientNode, echoURL(i), echoURL(i)[:len(echoURL(i))-len("/echo")]+"/fanout",
				reqBody, first, w.RPCInterval, len(backends) > 0)
		})
	}
	return f
}

// runClient is one pair's client loop (tenant goroutine): issue an exchange
// at each tick of the absolute schedule first + k*interval, blocking through
// a stock http.Client, until the fleet stops.
func (f *httpFleet) runClient(n *simnet.Net, cl *httpFleetClient, node int,
	echoURL, fanURL string, reqBody []byte, first units.Time, interval units.Duration, fanout bool) {
	vnow := func() units.Time { return units.Time(n.Now().Sub(simnet.Epoch)) }
	if d := first.Sub(vnow()); d > 0 {
		n.Sleep(time.Duration(d))
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext:       n.DialContext,
		DisableKeepAlives: true,
	}}
	ctx := simnet.WithSource(context.Background(), node)
	for k := 0; ; k++ {
		f.mu.Lock()
		if f.stopped {
			f.mu.Unlock()
			return
		}
		issued := vnow()
		f.outstanding++
		cl.pending = append(cl.pending, issued)
		f.mu.Unlock()

		url := echoURL
		if fanout && (k+1)%HTTPFanEvery == 0 {
			url = fanURL
		}
		failed := false
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(reqBody))
		if err != nil {
			failed = true
		} else {
			resp, err := client.Do(req)
			if err != nil {
				failed = true
			} else {
				_, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				failed = err != nil || resp.StatusCode != http.StatusOK
			}
		}

		f.mu.Lock()
		cl.pending = cl.pending[:len(cl.pending)-1]
		f.outstanding--
		cl.results = append(cl.results, flow.RPCResult{Issued: issued, Finished: vnow(), Failed: failed})
		stopped := f.stopped
		f.mu.Unlock()
		if stopped {
			return
		}
		if d := first.Add(units.Duration(k+1) * interval).Sub(vnow()); d > 0 {
			n.Sleep(time.Duration(d))
		}
	}
}

// RunHTTPLoad executes the façade service workload under the configuration:
// the echo/fan-out service and its client fleet, measured through the same
// phase layout and SLO aggregation as RunTenants' service tier (no batch
// tier — the harness isolates what real tenant code observes). The façade is
// forced on; shard counts are honored, and results are bit-identical across
// them. Panics on an invalid workload, like every harness.
func RunHTTPLoad(cfg Config, w WorkloadConfig) TenantResult {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	if w.RPCClients <= 0 {
		panic("experiment: httpload needs RPCClients > 0")
	}
	cfg.Facade = true
	c := Build(cfg)
	p := newPhases(c, w)

	c.Engine.Schedule(p.start, func() {
		p.fleet = startHTTPFleet(c, w, p.start)
		c.Net.Settle()
	})
	p.scheduleBoundaries(c)

	// The drain deadline bounds the tail: exchanges in flight at measureEnd
	// finish (they are the slowest tail), but a wedged run cannot hang.
	c.Run(func() bool { return c.Now() >= p.measureEnd && p.fleet.Outstanding() == 0 }, p.drainDeadline(c))
	drained := p.fleet.Outstanding() == 0
	c.Net.Shutdown()

	res := TenantResult{Workload: w, Drained: drained}
	res.Config = cfg
	p.report(c, &res)
	return res
}
