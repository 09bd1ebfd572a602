// Package cluster is the coordinator tier that scales pcserved out
// horizontally: a consistent-hash proxy (cmd/pcfront) that places each
// request on a fleet of measurement nodes by its canonical key
// (api.RequestKeyForPath — the exact identity the service coalesces
// on), so cluster-wide request coalescing and calibration-cache
// affinity fall out of routing for free.
//
// Because every node answers a given normalized request with a
// byte-identical body (the determinism contract of internal/service),
// placement is an efficiency decision, never a correctness one: any
// healthy node is a valid fallback. The cluster exploits that with
// per-request retries (transport failures fail over to the next ring
// node immediately; 5xx retries spend a token budget so a sick fleet
// cannot melt down under retry amplification) and tail-latency hedging
// (a slow primary gets a budgeted second attempt on the next replica;
// first response wins, the loser's context is cancelled).
//
// Membership is health-checked: a prober drives GET /healthz against
// every backend, and nodes leave the ring after FailAfter consecutive
// failures and rejoin after RiseAfter consecutive successes. Node
// drain generalizes the session-drain discipline of internal/monitor
// to the fleet: a draining node stops receiving new keys but keeps its
// in-flight work and its pinned streams until they end, so a deploy is
// drain -> wait -> SIGTERM (the node's own registries then end its
// streams with a "drained" event).
//
// Stateful resources (/sessions, /campaigns) are pinned: creation
// routes by the configuration's canonical key, and the returned id is
// remembered so snapshot, stream, and delete requests follow the
// owning node. See docs/CLUSTER.md.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Config describes a fleet and the proxy's policies. The zero value of
// every field but Backends is a production default.
type Config struct {
	// Backends lists the pcserved base URLs (e.g. http://10.0.0.1:7090).
	// Required, at least one.
	Backends []string
	// VNodes is the number of ring points per backend. More points
	// spread keys more evenly at a small ring-size cost. Zero means 64.
	VNodes int
	// ProbeInterval is the liveness-probe cadence against each
	// backend's /healthz. Zero means 1s; negative disables probing
	// (tests drive state by hand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe. Zero means 2s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures (or forwarded
	// transport failures) mark a node unhealthy. Zero means 2.
	FailAfter int
	// RiseAfter is how many consecutive probe successes return an
	// unhealthy node to the ring. Zero means 2.
	RiseAfter int
	// HedgeAfter is how long the primary attempt may run before a
	// hedge fires to the next replica. Zero means 50ms; negative
	// disables hedging.
	HedgeAfter time.Duration
	// RetryBudget is the token budget shared by 5xx retries and
	// hedges: each forwarded request credits RetryRate tokens (capped
	// at RetryBudget), each budgeted extra attempt spends one. Zero
	// means 64. Transport-error failovers are deliberately free —
	// a dead node must not be able to starve its own failover.
	RetryBudget float64
	// RetryRate is the per-request token credit. Zero means 0.2.
	RetryRate float64
	// Client is the backend HTTP client. Nil means a client with a 60s
	// timeout for keyed requests (streams use a timeout-free clone).
	Client *http.Client
	// Name identifies this pcfront in the api.HeaderForwarded request
	// header. Empty means "pcfront".
	Name string
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Backends) == 0 {
		return c, errors.New("cluster: no backends configured")
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RiseAfter <= 0 {
		c.RiseAfter = 2
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 50 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 64
	}
	if c.RetryRate <= 0 {
		c.RetryRate = 0.2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if c.Name == "" {
		c.Name = "pcfront"
	}
	return c, nil
}

// Node is one backend as the cluster sees it: identity, probed state,
// and per-backend counters. All counter fields are atomics; state
// transitions go through the cluster's lock so ring rebuilds are
// consistent.
type Node struct {
	// Name is the backend's short identity (the URL's host:port).
	Name string
	// Base is the backend's base URL, scheme included, no trailing
	// slash.
	Base string

	// inflight counts proxied requests (streams included) currently
	// outstanding.
	inflight atomic.Int64
	// requests/errors/hedges/retries are the per-backend attempt
	// counters surfaced in health and metrics.
	requests atomic.Uint64
	errors   atomic.Uint64
	hedges   atomic.Uint64
	retries  atomic.Uint64

	// Probed state, guarded by the owning cluster's mu.
	healthy  bool
	draining bool
	fails    int // consecutive probe/transport failures
	rises    int // consecutive probe successes while unhealthy
}

// State returns the node's api state string. Draining wins over
// health: a draining node is out of the ring either way.
func (n *Node) stateLocked() string {
	switch {
	case n.draining:
		return api.NodeDraining
	case n.healthy:
		return api.NodeHealthy
	}
	return api.NodeUnhealthy
}

// Inflight returns the node's outstanding proxied-request count.
func (n *Node) Inflight() int64 { return n.inflight.Load() }

// Cluster owns the fleet view: nodes, the hash ring over the routable
// ones, the prober, and the retry/hedge budget.
type Cluster struct {
	cfg    Config
	nodes  []*Node // configuration order, immutable
	byName map[string]*Node

	mu   sync.Mutex
	ring atomic.Pointer[ring]

	budget budget

	// streamClient is cfg.Client without a timeout: NDJSON streams live
	// as long as their producer, and http.Client.Timeout covers the
	// whole body read.
	streamClient *http.Client

	// observeAttempt, when set (by the front end), receives every
	// finished backend attempt's latency for the per-backend histogram.
	observeAttempt func(backend string, d time.Duration)

	// hedged/hedgeWins/retried count requests (not attempts) that
	// engaged each policy.
	hedged    atomic.Uint64
	hedgeWins atomic.Uint64
	retried   atomic.Uint64

	proberStop chan struct{}
	proberDone chan struct{}
}

// New builds the fleet view and starts the liveness prober. Every
// backend starts healthy: the fleet is presumed up at boot so the
// first requests don't wait out a probe round; a dead node falls out
// on its first failed probe or forwarded attempt.
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		byName: make(map[string]*Node, len(cfg.Backends)),
	}
	c.budget.max = cfg.RetryBudget
	c.budget.rate = cfg.RetryRate
	c.budget.tokens = cfg.RetryBudget
	sc := *cfg.Client
	sc.Timeout = 0
	c.streamClient = &sc
	for _, raw := range cfg.Backends {
		base := strings.TrimRight(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", raw)
		}
		if _, dup := c.byName[u.Host]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %s", u.Host)
		}
		n := &Node{Name: u.Host, Base: base, healthy: true}
		c.nodes = append(c.nodes, n)
		c.byName[u.Host] = n
	}
	c.rebuildLocked()
	if cfg.ProbeInterval > 0 {
		c.proberStop = make(chan struct{})
		c.proberDone = make(chan struct{})
		go c.prober()
	}
	return c, nil
}

// Close stops the prober. In-flight forwards finish on their own.
func (c *Cluster) Close() {
	if c.proberStop != nil {
		close(c.proberStop)
		<-c.proberDone
	}
}

// Nodes returns the fleet in configuration order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// rebuildLocked recomputes the ring over healthy, non-draining nodes.
// Callers hold c.mu.
func (c *Cluster) rebuildLocked() {
	var routable []*Node
	for _, n := range c.nodes {
		if n.healthy && !n.draining {
			routable = append(routable, n)
		}
	}
	c.ring.Store(buildRing(routable, c.cfg.VNodes))
}

// candidates returns the preference-ordered attempt targets for a key:
// the ring owner first, then its clockwise successors. When the ring
// is empty (every node unhealthy or draining), it falls back to the
// full fleet in configuration order — a probe can be wrong, and
// refusing to try at all guarantees failure.
func (c *Cluster) candidates(key string) []*Node {
	if nodes := c.ring.Load().pick(key, len(c.nodes)); len(nodes) > 0 {
		return nodes
	}
	return c.nodes
}

// Owner returns the ring owner for a canonical key (nil when the ring
// is empty). It is the placement the keyed endpoints use, exposed for
// tests and the drain report.
func (c *Cluster) Owner(key string) *Node {
	nodes := c.ring.Load().pick(key, 1)
	if len(nodes) == 0 {
		return nil
	}
	return nodes[0]
}

// Drain marks a node draining and removes it from the ring: new keys
// hash elsewhere, in-flight work and pinned streams continue. It
// returns the node's remaining in-flight count; callers poll (or
// DrainWait) until it reaches zero before stopping the backend.
func (c *Cluster) Drain(name string) (*Node, error) {
	n := c.byName[name]
	if n == nil {
		return nil, fmt.Errorf("cluster: %w: %s", ErrUnknownNode, name)
	}
	c.mu.Lock()
	n.draining = true
	c.rebuildLocked()
	c.mu.Unlock()
	return n, nil
}

// Undrain returns a drained node to the ring (subject to health).
func (c *Cluster) Undrain(name string) (*Node, error) {
	n := c.byName[name]
	if n == nil {
		return nil, fmt.Errorf("cluster: %w: %s", ErrUnknownNode, name)
	}
	c.mu.Lock()
	n.draining = false
	c.rebuildLocked()
	c.mu.Unlock()
	return n, nil
}

// DrainWait blocks until the node's in-flight count reaches zero or
// the context ends, returning the remaining count.
func (c *Cluster) DrainWait(ctx context.Context, n *Node) int64 {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if left := n.inflight.Load(); left == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return n.inflight.Load()
		case <-tick.C:
		}
	}
}

// ErrUnknownNode reports a drain/undrain request naming no configured
// backend.
var ErrUnknownNode = errors.New("unknown node")

// prober drives liveness probes at the configured cadence. One round
// probes every node concurrently; state transitions rebuild the ring.
func (c *Cluster) prober() {
	defer close(c.proberDone)
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.proberStop:
			return
		case <-tick.C:
			c.ProbeOnce()
		}
	}
}

// ProbeOnce probes every node once, concurrently, and applies the
// fail/rise state machine. Exposed so tests (and a disabled-prober
// cluster) can drive membership deterministically.
func (c *Cluster) ProbeOnce() {
	var wg sync.WaitGroup
	results := make([]bool, len(c.nodes))
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			results[i] = c.probe(n)
		}(i, n)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for i, n := range c.nodes {
		if results[i] {
			n.fails = 0
			if !n.healthy {
				if n.rises++; n.rises >= c.cfg.RiseAfter {
					n.healthy, n.rises = true, 0
					changed = true
				}
			}
		} else {
			n.rises = 0
			if n.healthy {
				if n.fails++; n.fails >= c.cfg.FailAfter {
					n.healthy, n.fails = false, 0
					changed = true
				}
			}
		}
	}
	if changed {
		c.rebuildLocked()
	}
}

// probe performs one liveness check: GET /healthz answering 200 within
// the probe timeout.
func (c *Cluster) probe(n *Node) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// noteTransportFailure feeds a forwarded attempt's dial/transport
// failure into the same fail counter the prober uses: a refused
// connection is stronger evidence than a missed probe, so a dead node
// leaves the ring after FailAfter forwarded failures without waiting
// out probe rounds.
func (c *Cluster) noteTransportFailure(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.rises = 0
	if !n.healthy {
		return
	}
	if n.fails++; n.fails >= c.cfg.FailAfter {
		n.healthy, n.fails = false, 0
		c.rebuildLocked()
	}
}

// NodeInfo returns one backend's current api view (zero value for an
// unknown name).
func (c *Cluster) NodeInfo(name string) api.ClusterNode {
	n := c.byName[name]
	if n == nil {
		return api.ClusterNode{}
	}
	c.mu.Lock()
	state := n.stateLocked()
	c.mu.Unlock()
	return api.ClusterNode{
		Name:     n.Name,
		URL:      n.Base,
		State:    state,
		Inflight: n.inflight.Load(),
		Requests: n.requests.Load(),
		Errors:   n.errors.Load(),
		Hedges:   n.hedges.Load(),
		Retries:  n.retries.Load(),
	}
}

// Health assembles the cluster health view. Stream-owner counts are
// the front end's and are overlaid by the handler.
func (c *Cluster) Health() api.ClusterHealthResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := api.ClusterHealthResponse{
		Hedged:    c.hedged.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Retried:   c.retried.Load(),
	}
	healthyN := 0
	for _, n := range c.nodes {
		state := n.stateLocked()
		if state == api.NodeHealthy {
			healthyN++
		}
		h.Nodes = append(h.Nodes, api.ClusterNode{
			Name:     n.Name,
			URL:      n.Base,
			State:    state,
			Inflight: n.inflight.Load(),
			Requests: n.requests.Load(),
			Errors:   n.errors.Load(),
			Hedges:   n.hedges.Load(),
			Retries:  n.retries.Load(),
		})
	}
	switch {
	case healthyN == len(c.nodes):
		h.Status = "ok"
	case healthyN > 0:
		h.Status = "degraded"
	default:
		h.Status = "unavailable"
	}
	return h
}

// budget is the token bucket shared by 5xx retries and hedges: each
// forwarded request credits rate tokens (capped at max), each budgeted
// extra attempt spends one. It bounds retry amplification — a fleet
// returning 5xx under overload sees at most rate extra attempts per
// request in steady state, not a doubling.
type budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	rate   float64
}

func (b *budget) credit() {
	b.mu.Lock()
	if b.tokens += b.rate; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

func (b *budget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
