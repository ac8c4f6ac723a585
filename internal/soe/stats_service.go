package soe

import (
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// StatsService is the v2stats service of Figure 3 — previously a line
// folded into the cluster manager, now its own registered service. Every
// data node keeps a private metrics registry (labeled node=...); the
// StatsService pulls those registries over the network with MsgStatsPull
// and merges them with the cluster-level registry (coordinator, broker,
// shared log, netsim link counters) and the process-wide default registry
// (column store, streaming) into one landscape-wide snapshot. Remote
// clients — the shell, the /metrics endpoint, the cluster manager's
// hotspot detector — read the aggregate either in-process via Collect or
// over the wire via MsgStatsPull to the service itself.
type StatsService struct {
	Name string
	net  *netsim.Network
	disc *Discovery

	cluster *stats.Registry // coordinator/broker/log/netsim metrics
	tracer  *stats.Tracer

	mu      sync.Mutex
	sources map[string]bool // network endpoints answering MsgStatsPull
}

// NewStatsService creates, registers and announces the v2stats service.
func NewStatsService(name string, net *netsim.Network, disc *Discovery, cluster *stats.Registry, tracer *stats.Tracer) *StatsService {
	s := &StatsService{Name: name, net: net, disc: disc, cluster: cluster, tracer: tracer, sources: map[string]bool{}}
	net.Register(name, s.handle)
	disc.Announce("v2stats", name)
	return s
}

// AddSource subscribes a network endpoint (a data node) whose registry
// the service aggregates.
func (s *StatsService) AddSource(endpoint string) {
	s.mu.Lock()
	s.sources[endpoint] = true
	s.mu.Unlock()
}

// Sources lists subscribed endpoints, sorted.
func (s *StatsService) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sources))
	for e := range s.sources {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Tracer returns the landscape tracer (coordinator/broker spans).
func (s *StatsService) Tracer() *stats.Tracer { return s.tracer }

// Registry returns the cluster-level registry.
func (s *StatsService) Registry() *stats.Registry { return s.cluster }

// Collect aggregates the landscape: the cluster registry, the process
// default registry, and every source's per-node registry pulled over
// netsim. Crashed sources are simply absent (availability over
// completeness).
func (s *StatsService) Collect() stats.Snapshot {
	snaps := make([]stats.Snapshot, 0, 2+len(s.sources))
	snaps = append(snaps, s.cluster.Snapshot(), stats.Default.Snapshot())
	for _, src := range s.Sources() {
		resp, err := call[StatsResp](s.net, s.Name, src, MsgStatsPull, StatsReq{Token: s.disc.Token()})
		if err != nil || resp.Err != "" {
			continue
		}
		snaps = append(snaps, resp.Snapshot)
	}
	return stats.Merge(snaps...)
}

func (s *StatsService) handle(from string, req netsim.Message) (netsim.Message, error) {
	if req.Kind != MsgStatsPull {
		return netsim.Message{}, errUnknownMsg("v2stats", req.Kind)
	}
	r, err := decode[StatsReq](req)
	if err != nil {
		return netsim.Message{}, err
	}
	if !s.disc.Validate(r.Token) {
		return reply(req, StatsResp{Err: "unauthorized"}), nil
	}
	return reply(req, StatsResp{Snapshot: s.Collect()}), nil
}
