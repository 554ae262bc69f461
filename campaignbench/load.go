package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"besst/internal/dist"
	"besst/internal/par"
	"besst/internal/serve"
	"besst/internal/serveclient"
)

// Distributed fleet geometry of the mc_sharded workload.
const (
	distWorkers = 3
	shards      = 4
)

// minTimed is the fewest timed campaigns a run completes, so that p90
// has at least ten samples beyond it.
const minTimed = 100

// campaignTimeout bounds one campaign's submit-to-result time.
const campaignTimeout = 60 * time.Second

// fleet is an in-process besst-serve deployment on loopback listeners:
// one server, or for dist workloads three besst-worker handlers behind
// a k=1 and a k=3 server.
type fleet struct {
	servers []*serve.Server
	fronts  []*httptest.Server // fronts[i] serves servers[i]
	workers []*httptest.Server
	execs   []*serve.ShardExecutor // the workers' executors
}

// serverConfig is the besst-serve configuration every fleet uses: the
// default admission caps (two active campaigns, one per tenant), one
// replication worker per campaign, and a compile cache that holds the
// whole mix.
func serverConfig() serve.Config {
	return serve.Config{Workers: 1, CacheCap: 64, MaxQueued: 64}
}

func startFleet(w *workload) (*fleet, error) {
	f := &fleet{}
	if !w.dist {
		srv := serve.NewServer(serverConfig())
		f.servers = append(f.servers, srv)
		f.fronts = append(f.fronts, httptest.NewServer(srv.Handler()))
		return f, nil
	}
	var urls []string
	for i := 0; i < distWorkers; i++ {
		x := serve.NewShardExecutor(serve.ExecConfig{Workers: 1, CacheCap: 64})
		ts := httptest.NewServer(dist.WorkerHandler(dist.WorkerConfig{Executor: x}))
		f.execs = append(f.execs, x)
		f.workers = append(f.workers, ts)
		urls = append(urls, ts.URL)
	}
	for _, k := range []int{1, 3} {
		coord, err := dist.NewCoordinator(dist.Config{Workers: urls, Shards: shards, Replicas: k})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start coordinator k=%d: %w", k, err)
		}
		cfg := serverConfig()
		cfg.Backend = dist.ServeBackend(coord)
		srv := serve.NewServer(cfg)
		f.servers = append(f.servers, srv)
		f.fronts = append(f.fronts, httptest.NewServer(srv.Handler()))
	}
	return f, nil
}

// front returns the base URL serving campaign c.
func (f *fleet) front(c campaign) string {
	if len(f.fronts) > 1 && c.combo.Replicas == 3 {
		return f.fronts[1].URL
	}
	return f.fronts[0].URL
}

// close stops the listeners and drains the servers; it returns once
// every server goroutine has exited.
func (f *fleet) close() {
	for _, ts := range f.fronts {
		ts.Close()
	}
	for _, s := range f.servers {
		s.Drain()
	}
	for _, ts := range f.workers {
		ts.Close()
	}
}

// statz sums the compile-cache and point-memo counters of every server
// and worker. A server with a dist backend compiles nothing itself; its
// workers' caches do.
func (f *fleet) statz(ctx context.Context) (serve.Statz, error) {
	var sum serve.Statz
	for _, ts := range f.fronts {
		st, err := serveclient.New(ts.URL, "").Statz(ctx)
		if err != nil {
			return sum, err
		}
		sum.Completed += st.Completed
		sum.Rejected += st.Rejected
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.PointMemo.Hits += st.PointMemo.Hits
		sum.PointMemo.Misses += st.PointMemo.Misses
	}
	for _, x := range f.execs {
		st := x.Statz()
		sum.Cache.Hits += st.Hits
		sum.Cache.Misses += st.Misses
	}
	return sum, nil
}

// outcome is one posted campaign as a client saw it.
type outcome struct {
	c        campaign
	latency  time.Duration
	finished time.Time
	body     []byte
	err      error
}

// poster posts campaigns for one client over its own connection pool.
type poster struct {
	http *http.Client
	tr   *tracer // nil: untraced
}

func newPoster(tr *tracer) *poster {
	return &poster{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, tr: tr}
}

func (p *poster) close() { p.http.CloseIdleConnections() }

// post submits one campaign, waits on its watch stream until it
// settles, and fetches the result bytes. The latency runs from submit
// to the last result byte.
func (p *poster) post(base string, c campaign) outcome {
	out := outcome{c: c}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	api := serveclient.New(base, "")
	api.HTTPClient = p.http

	root := p.tr.start("campaign", 0, "")
	start := time.Now()
	sp := p.tr.start("serveclient.SubmitRaw", root, "")
	st, err := api.SubmitRaw(ctx, c.raw)
	p.tr.end(sp)
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		p.tr.end(root)
		return out
	}
	p.tr.setCampaign(root, st.ID)
	sp = p.tr.start("serveclient.Watch", root, st.ID)
	last := st
	err = api.Watch(ctx, st.ID, func(s serve.CampaignStatus) error {
		last = s
		return nil
	})
	p.tr.end(sp)
	if err == nil && last.State != serve.StateDone {
		err = fmt.Errorf("campaign %s settled %s: %s", st.ID, last.State, last.Error)
	}
	if err != nil {
		out.err = fmt.Errorf("watch: %w", err)
		p.tr.end(root)
		return out
	}
	sp = p.tr.start("serveclient.Result", root, st.ID)
	body, err := api.Result(ctx, st.ID)
	p.tr.end(sp)
	out.finished = time.Now()
	out.latency = out.finished.Sub(start)
	p.tr.end(root)
	if err != nil {
		out.err = fmt.Errorf("result: %w", err)
		return out
	}
	out.body = body
	if _, err := checkResult(c, body); err != nil {
		out.err = fmt.Errorf("campaign %s: %w", st.ID, err)
	}
	return out
}

// postAll posts a fixed list of campaigns from two concurrent clients
// and returns the outcomes in list order.
func postAll(f *fleet, cs []campaign, tr *tracer) []outcome {
	outs := make([]outcome, len(cs))
	const lanes = 2
	par.ForEach(lanes, lanes, func(lane int) {
		p := newPoster(tr)
		defer p.close()
		for i := lane; i < len(cs); i += lanes {
			outs[i] = p.post(f.front(cs[i]), cs[i])
		}
	})
	return outs
}

// loadSpec bounds a closed-loop phase: clients keep posting until the
// deadline has passed and at least minDone campaigns have been started,
// or, when counts is set, client c posts exactly counts[c] campaigns.
type loadSpec struct {
	seconds float64
	minDone int64
	counts  []int
}

// closedLoop runs one closed-loop client per stream: each posts its
// next campaign as soon as the previous result arrives, appending the
// outcome to outs[client]. outs persists across calls, so a re-post is
// checked against its first post from any earlier phase. It returns
// each client's busy time: from the phase's start to the client's last
// result, so a client that has stopped is not charged for the time the
// others take to finish their last campaigns.
func closedLoop(f *fleet, streams []*stream, outs [][]outcome, spec loadSpec, tr *tracer) []time.Duration {
	var started atomic.Int64
	begin := time.Now()
	deadline := begin.Add(time.Duration(spec.seconds * float64(time.Second)))
	busy := make([]time.Duration, len(streams))
	par.ForEach(len(streams), len(streams), func(ci int) {
		p := newPoster(tr)
		defer p.close()
		defer func() { busy[ci] = time.Since(begin) }()
		s := streams[ci]
		for j := 0; ; j++ {
			if spec.counts != nil {
				if j >= spec.counts[ci] {
					return
				}
			} else if time.Now().After(deadline) && started.Load() >= spec.minDone {
				return
			}
			started.Add(1)
			c := s.next()
			o := p.post(f.front(c), c)
			if o.err == nil && c.repostOf >= 0 {
				if prev := outs[ci][c.repostOf]; prev.err == nil && sha256.Sum256(prev.body) != sha256.Sum256(o.body) {
					o.err = fmt.Errorf("re-post of request %d returned different bytes", c.repostOf)
				}
			}
			outs[ci] = append(outs[ci], o)
		}
	})
	return busy
}
