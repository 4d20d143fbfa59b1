package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/scadanet"
	"scadaver/internal/serve"
)

// Member identifies one verification-service node.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Options configures a Coordinator. Every field except Members has a
// serviceable default noted per field; Members may also be empty when
// nodes join at runtime via POST /v1/cluster/join.
type Options struct {
	// Members seeds the ring. More join at runtime via
	// POST /v1/cluster/join.
	Members []Member
	// Configs mirrors the fleet's named configurations. It is only used
	// to compute campaign fingerprints for checkpoint-carrying handoff;
	// without it (nil) a failover restarts the campaign on the new owner
	// instead of resuming it — still correct, just more work.
	Configs map[string]*scadanet.Config

	// Replicas is the replica-walk depth used for failover ordering
	// (default 2). The ring still yields every member as a last resort;
	// Replicas shapes the preferred order.
	Replicas int
	// Attempts bounds how many members one request may be forwarded to
	// (default 3).
	Attempts int
	// AttemptTimeout is the per-attempt deadline for unary forwards —
	// verify (default 30s).
	AttemptTimeout time.Duration
	// StreamTimeout is the per-attempt deadline for long-running
	// forwards — enumerate streams and sweeps (default 5m).
	StreamTimeout time.Duration
	// RetryBackoff is the base delay before a retry attempt; attempt n
	// waits up to RetryBackoff·2ⁿ with full jitter, capped at
	// MaxRetryBackoff (defaults 50ms and 2s).
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration

	// HeartbeatInterval is the member health-probe cadence (default 1s);
	// ProbeTimeout bounds each probe (default: the interval, capped at
	// 2s).
	HeartbeatInterval time.Duration
	ProbeTimeout      time.Duration
	// Detector tunes the per-member failure detector; its Expected
	// defaults to HeartbeatInterval and its Now to the coordinator's
	// clock.
	Detector DetectorOptions

	// MaxJournal bounds the vectors journaled per in-flight enumeration
	// for handoff (default 4096). A journal past the bound stops
	// growing: the handoff then carries a prefix and the new owner
	// re-discovers the rest, which costs work but never correctness —
	// replayed vectors are deduplicated either way.
	MaxJournal int
	// Vnodes is the ring's virtual-node count per member (default 64).
	Vnodes int

	// Metrics receives the coordinator metrics (a fresh registry when
	// nil); served at /metrics and /metrics.json.
	Metrics *obs.Registry
	// Transport is the forwarding and probing transport (default
	// http.DefaultTransport). Chaos tests wrap it with
	// faultinject.Faults.Transport to refuse, delay or cut member
	// connections.
	Transport http.RoundTripper
	// ErrorLog receives failover and handoff notes (default: the
	// standard logger).
	ErrorLog *log.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 30 * time.Second
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 5 * time.Minute
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxRetryBackoff <= 0 {
		o.MaxRetryBackoff = 2 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.HeartbeatInterval
		if o.ProbeTimeout > 2*time.Second {
			o.ProbeTimeout = 2 * time.Second
		}
	}
	if o.MaxJournal <= 0 {
		o.MaxJournal = 4096
	}
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.ErrorLog == nil {
		o.ErrorLog = log.Default()
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.Detector.Expected <= 0 {
		o.Detector.Expected = o.HeartbeatInterval
	}
	if o.Detector.Now == nil {
		o.Detector.Now = o.now
	}
	return o
}

// memberState is one member plus its failure detector and last probe
// outcome.
type memberState struct {
	Member
	det *Detector

	mu       sync.Mutex
	lastErr  string
	lastSeen time.Time
}

func (m *memberState) setProbe(err error, when time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.lastErr = err.Error()
		return
	}
	m.lastErr = ""
	m.lastSeen = when
}

func (m *memberState) probeInfo() (lastErr string, lastSeen time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr, m.lastSeen
}

// Coordinator fronts the member fleet: it owns the ring, the failure
// detectors and the forwarding (with failover and checkpoint-carrying
// handoff), and serves the cluster's aggregated health and membership
// API. Construct with New, mount Handler, call Close on shutdown.
type Coordinator struct {
	opts   Options
	reg    *obs.Registry
	client *http.Client
	ring   *Ring
	mux    *http.ServeMux

	mu      sync.RWMutex
	members map[string]*memberState

	seq  atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the seed members, starts the heartbeat prober, and
// returns the coordinator ready to forward.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		reg:     opts.Metrics,
		client:  &http.Client{Transport: opts.Transport},
		ring:    NewRing(opts.Vnodes),
		mux:     http.NewServeMux(),
		members: map[string]*memberState{},
		stop:    make(chan struct{}),
	}
	for _, m := range opts.Members {
		if err := c.addMember(m); err != nil {
			return nil, fmt.Errorf("cluster: member %q: %w", m.Name, err)
		}
	}
	c.routes()
	c.updateMemberGauges()
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler: the forwarded /v1
// verification API, the cluster membership API, health and metrics.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the heartbeat prober. Forwards already in flight finish
// on their own deadlines.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/verify", c.handleVerify)
	c.mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	c.mux.HandleFunc("POST /v1/enumerate", c.handleEnumerate)
	c.mux.HandleFunc("PATCH /v1/configs/{name}", c.handlePatchConfig)
	c.mux.HandleFunc("GET /v1/subscribe", c.handleSubscribe)
	c.mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	c.mux.HandleFunc("GET /v1/cluster/members", c.handleMembers)
	c.mux.HandleFunc("DELETE /v1/cluster/members/{name}", c.handleLeave)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "coordinator"})
	})
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.Handle("GET /metrics", c.reg.Handler())
	c.mux.Handle("GET /metrics.json", c.reg.JSONHandler())
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// addMember validates and places one member on the ring. A re-join
// under an existing name replaces the URL (a member restarted on a new
// port) and resets its detector.
func (c *Coordinator) addMember(m Member) error {
	if m.Name == "" {
		return fmt.Errorf("empty member name")
	}
	u, err := url.Parse(m.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("bad member URL %q (want http://host:port)", m.URL)
	}
	m.URL = u.Scheme + "://" + u.Host
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members[m.Name] = &memberState{Member: m, det: NewDetector(c.opts.Detector)}
	c.ring.Add(m.Name)
	return nil
}

func (c *Coordinator) removeMember(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[name]; !ok {
		return false
	}
	delete(c.members, name)
	c.ring.Remove(name)
	return true
}

func (c *Coordinator) memberSnapshot() []*memberState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*memberState, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// heartbeatLoop probes every member's /healthz on the configured
// cadence; a 200 is a heartbeat into that member's failure detector.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		members := c.memberSnapshot()
		var wg sync.WaitGroup
		for _, m := range members {
			wg.Add(1)
			go func(m *memberState) {
				defer wg.Done()
				c.probe(m)
			}(m)
		}
		wg.Wait()
		c.updateMemberGauges()
	}
}

func (c *Coordinator) probe(m *memberState) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/healthz", nil)
	if err != nil {
		m.setProbe(err, c.opts.now())
		return
	}
	resp, err := c.client.Do(req)
	result := "ok"
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err != nil {
		result = "fail"
	} else {
		m.det.Heartbeat()
	}
	m.setProbe(err, c.opts.now())
	c.reg.Inc("scadaver_cluster_heartbeats_total",
		map[string]string{"member": m.Name, "result": result})
}

func (c *Coordinator) updateMemberGauges() {
	counts := map[State]int{}
	for _, m := range c.memberSnapshot() {
		counts[m.det.State()]++
	}
	for _, s := range []State{StateAlive, StateSuspect, StateDead} {
		c.reg.SetGauge("scadaver_cluster_members",
			map[string]string{"state": s.String()}, float64(counts[s]))
	}
}

// candidates returns the failover order for a key: the ring's replica
// walk, stably partitioned so alive members come first, then suspects,
// then dead ones as a last resort. The walk covers the whole
// membership — Replicas only shapes which members are "preferred"; a
// request never fails for want of candidates while any member is up.
func (c *Coordinator) candidates(key string) []*memberState {
	c.mu.RLock()
	names := c.ring.Owners(key, len(c.members))
	byName := make([]*memberState, 0, len(names))
	for _, n := range names {
		if m := c.members[n]; m != nil {
			byName = append(byName, m)
		}
	}
	c.mu.RUnlock()
	var alive, suspect, dead []*memberState
	for _, m := range byName {
		switch m.det.State() {
		case StateAlive:
			alive = append(alive, m)
		case StateSuspect:
			suspect = append(suspect, m)
		default:
			dead = append(dead, m)
		}
	}
	return append(append(alive, suspect...), dead...)
}

// backoff returns the full-jitter delay before retry attempt n (1-based
// over the retries, so the first retry waits up to RetryBackoff·2).
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.opts.RetryBackoff << attempt
	if d > c.opts.MaxRetryBackoff || d <= 0 {
		d = c.opts.MaxRetryBackoff
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// sleepBackoff waits the backoff for attempt n, abandoning the wait if
// the client goes away.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) bool {
	t := time.NewTimer(c.backoff(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// retryableStatus reports whether a member response indicates the
// request may succeed elsewhere: shed, unready or proxy-level errors.
// 4xx contract errors (bad request, unknown config, checkpoint
// conflict) would fail identically on every member and are forwarded
// to the client as-is.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forwardOnce sends one attempt of a unary forward and accounts its
// latency under the member's label.
func (c *Coordinator) forwardOnce(ctx context.Context, m *memberState, method, path string, body []byte, timeout time.Duration) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	req, err := http.NewRequestWithContext(ctx, method, m.URL+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.client.Do(req)
	c.reg.ObserveDuration("scadaver_cluster_forward_seconds",
		map[string]string{"member": m.Name}, time.Since(start))
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel travels with the response body: the caller closes the
	// body, which releases the context.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// forward relays one unary request across the candidate walk: per
// attempt one member, one deadline; transport errors and retryable
// statuses fail over to the next candidate after a jittered backoff.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, route, key string, body []byte, timeout time.Duration) {
	cands := c.candidates(key)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}
	var lastErr error
	var shedCode int
	var shedRetryAfter string
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			c.reg.Inc("scadaver_cluster_failovers_total", nil)
			if !c.sleepBackoff(r.Context(), attempt) {
				return // client gone
			}
		}
		m := cands[attempt%len(cands)]
		resp, err := c.forwardOnce(r.Context(), m, r.Method, r.URL.Path, body, timeout)
		if err != nil {
			lastErr = fmt.Errorf("member %s: %w", m.Name, err)
			c.opts.ErrorLog.Printf("cluster: %s attempt %d on %s failed: %v", route, attempt+1, m.Name, err)
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt+1 < c.opts.Attempts {
			lastErr = fmt.Errorf("member %s: status %d", m.Name, resp.StatusCode)
			shedCode, shedRetryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			continue
		}
		relayResponse(w, resp)
		c.accountForward(route, m.Name, resp.StatusCode)
		return
	}
	// Exhausted. If any member answered at all it answered with a shed
	// (429/503) — relay that verdict and its Retry-After instead of a
	// proxy error: "the cluster is overloaded, retry later" is
	// actionable in a way 502 is not, and the dead member a final
	// attempt happened to land on should not mask it.
	if shedCode != 0 {
		if shedRetryAfter != "" {
			w.Header().Set("Retry-After", shedRetryAfter)
		}
		writeError(w, shedCode, "all %d attempts failed, last: %v", c.opts.Attempts, lastErr)
		c.accountForward(route, "", shedCode)
		return
	}
	writeError(w, http.StatusBadGateway, "all %d attempts failed, last: %v", c.opts.Attempts, lastErr)
	c.accountForward(route, "", http.StatusBadGateway)
}

func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client gone
}

func (c *Coordinator) accountForward(route, member string, code int) {
	c.reg.Inc("scadaver_cluster_requests_total",
		map[string]string{"route": route, "code": strconv.Itoa(code)})
	_ = member
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return body, true
}

func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.VerifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	c.forward(w, r, "verify", configKey(req.Config), body, c.opts.AttemptTimeout)
}

// configKey routes everything about one named configuration — verify,
// sweep, enumerate, mutation and subscription alike — to the same ring
// owner. A PATCH changes the configuration only on the member it lands
// on, so reads must land there too or they would answer for the
// pre-PATCH version; the owner's encoding cache and checkpoints are
// also the warm ones.
func configKey(name string) string {
	raw, _ := json.Marshal([]string{"config", name}) //nolint:errcheck // plain strings
	return string(raw)
}

// handlePatchConfig relays a configuration mutation to the config's
// ring owner. A mutation is not idempotent — a delta applied twice is a
// different (or invalid) delta — so unlike the verify walk there is no
// failover: one attempt on the owner, and a transport error is the
// client's to retry against the still-live prior version.
func (c *Coordinator) handlePatchConfig(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	cands := c.candidates(configKey(r.PathValue("name")))
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}
	m := cands[0]
	resp, err := c.forwardOnce(r.Context(), m, http.MethodPatch, r.URL.Path, body, c.opts.AttemptTimeout)
	if err != nil {
		c.opts.ErrorLog.Printf("cluster: patch on %s failed: %v", m.Name, err)
		writeError(w, http.StatusBadGateway, "member %s: %v", m.Name, err)
		c.accountForward("patch", m.Name, http.StatusBadGateway)
		return
	}
	relayResponse(w, resp)
	c.accountForward("patch", m.Name, resp.StatusCode)
}

// handleSubscribe relays a mutation-event stream from the config's ring
// owner — the same member PATCHes route to — copying JSONL lines
// through with a flush per line. The stream lives until the client
// disconnects, the owner drains, or StreamTimeout bounds it; a client
// that loses the stream reconnects and gets a fresh greeting.
func (c *Coordinator) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("config")
	cands := c.candidates(configKey(name))
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}
	m := cands[0]
	resp, err := c.forwardOnce(r.Context(), m, http.MethodGet,
		"/v1/subscribe?config="+url.QueryEscape(name), nil, c.opts.StreamTimeout)
	if err != nil {
		c.opts.ErrorLog.Printf("cluster: subscribe on %s failed: %v", m.Name, err)
		writeError(w, http.StatusBadGateway, "member %s: %v", m.Name, err)
		c.accountForward("subscribe", m.Name, http.StatusBadGateway)
		return
	}
	if resp.StatusCode != http.StatusOK {
		relayResponse(w, resp)
		c.accountForward("subscribe", m.Name, resp.StatusCode)
		return
	}
	defer resp.Body.Close()
	flusher, _ := w.(http.Flusher)
	c.startStream(w)
	if flusher != nil {
		flusher.Flush()
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if _, err := w.Write(append(bytes.Clone(line), '\n')); err != nil {
			break // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	c.accountForward("subscribe", m.Name, http.StatusOK)
}

// assignRequestID gives a coordinator-owned ID to a campaign the client
// did not name, so failover can re-issue it — and a member checkpoint
// can carry it — under a stable identity.
func (c *Coordinator) assignRequestID(prefix string) string {
	return fmt.Sprintf("%s-%d-%d", prefix, c.opts.now().UnixNano(), c.seq.Add(1))
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.RequestID == "" {
		req.RequestID = c.assignRequestID("coord-sweep")
		var err error
		if body, err = json.Marshal(req); err != nil {
			writeError(w, http.StatusInternalServerError, "re-encode: %v", err)
			return
		}
	}
	cands := c.candidates(configKey(req.Config))
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}
	var lastErr error
	var prev *memberState
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			c.reg.Inc("scadaver_cluster_failovers_total", nil)
			if !c.sleepBackoff(r.Context(), attempt) {
				return
			}
		}
		m := cands[attempt%len(cands)]
		if prev != nil && prev != m {
			// Checkpoint-carrying handoff, member-to-member: the failed
			// owner's journal holds every budget it finished. If the old
			// owner still answers (a partition from the client, a crash
			// after the journal hit disk and a restart), carry the journal
			// so the new owner re-solves only the missing budgets.
			c.carrySweepCheckpoint(r.Context(), prev, m, req.RequestID)
		}
		resp, err := c.forwardOnce(r.Context(), m, http.MethodPost, "/v1/sweep", body, c.opts.StreamTimeout)
		if err != nil {
			lastErr = fmt.Errorf("member %s: %w", m.Name, err)
			c.opts.ErrorLog.Printf("cluster: sweep attempt %d on %s failed: %v", attempt+1, m.Name, err)
			prev = m
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt+1 < c.opts.Attempts {
			lastErr = fmt.Errorf("member %s: status %d", m.Name, resp.StatusCode)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			prev = m
			continue
		}
		relayResponse(w, resp)
		c.accountForward("sweep", m.Name, resp.StatusCode)
		return
	}
	writeError(w, http.StatusBadGateway, "all %d attempts failed, last: %v", c.opts.Attempts, lastErr)
	c.accountForward("sweep", "", http.StatusBadGateway)
}

// carrySweepCheckpoint moves a sweep journal from the failed owner to
// the next one, best effort: GET the old owner's checkpoint, PUT it to
// the new owner. Either side failing degrades to a restart — the
// campaign is re-solved, never corrupted.
func (c *Coordinator) carrySweepCheckpoint(ctx context.Context, from, to *memberState, id string) {
	outcome := "restarted"
	defer func() {
		c.reg.Inc("scadaver_cluster_handoffs_total", map[string]string{"outcome": outcome})
	}()
	getCtx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(getCtx, http.MethodGet, from.URL+"/v1/checkpoints/"+id, nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return
	}
	journal, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if c.putCheckpoint(ctx, to, id, core.CheckpointKindCampaign, journal) {
		outcome = "carried"
	} else {
		outcome = "failed"
	}
}

// putCheckpoint lands a serialized journal on a member.
func (c *Coordinator) putCheckpoint(ctx context.Context, to *memberState, id, kind string, journal []byte) bool {
	putCtx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(putCtx, http.MethodPut,
		to.URL+"/v1/checkpoints/"+id+"?kind="+kind, bytes.NewReader(journal))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		c.opts.ErrorLog.Printf("cluster: handoff PUT to %s failed: %v", to.Name, err)
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.opts.ErrorLog.Printf("cluster: handoff PUT to %s status %d", to.Name, resp.StatusCode)
		return false
	}
	return true
}

// enumerateFingerprint computes the campaign fingerprint a member will
// bind this enumeration's checkpoint to, or "" when the coordinator
// does not hold the config.
func (c *Coordinator) enumerateFingerprint(req serve.EnumerateRequest) string {
	cfg := c.opts.Configs[req.Config]
	if cfg == nil {
		return ""
	}
	fp, err := core.CampaignFingerprint(cfg, core.CheckpointKindEnumerate, req.Query, core.EncodingVersion)
	if err != nil {
		return ""
	}
	return fp
}

// handleEnumerate relays an enumeration stream with node-kill survival.
// The coordinator journals every vector it forwards (bounded,
// deduplicated by ThreatVector identity). When the serving member dies
// mid-stream, the journal is serialized as a fingerprint-bound
// checkpoint, PUT to the next owner, and the request re-issued there
// under the same requestId; the new owner replays the journal and
// continues the search, and the coordinator suppresses the replayed
// prefix — the client sees each vector exactly once and a single
// trailer, regardless of how many members died along the way.
func (c *Coordinator) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.EnumerateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.RequestID == "" {
		req.RequestID = c.assignRequestID("coord-enum")
		var err error
		if body, err = json.Marshal(req); err != nil {
			writeError(w, http.StatusInternalServerError, "re-encode: %v", err)
			return
		}
	}
	cands := c.candidates(configKey(req.Config))
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}

	flusher, _ := w.(http.Flusher)
	seen := map[string]bool{}     // vector identity → already forwarded
	var journal []json.RawMessage // forwarded vectors, discovery order
	journalFull := false          // MaxJournal reached; handoff carries a prefix
	streamed := false             // response status is committed
	replayed := 0                 // vectors suppressed as handoff replays
	var lastErr error
	var prev *memberState

	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			c.reg.Inc("scadaver_cluster_failovers_total", nil)
			if !c.sleepBackoff(r.Context(), attempt) {
				return
			}
		}
		m := cands[attempt%len(cands)]
		if prev != nil && prev != m && len(journal) > 0 {
			c.carryEnumerateJournal(r.Context(), m, req, journal, journalFull)
		}
		prev = m

		resp, err := c.forwardOnce(r.Context(), m, http.MethodPost, "/v1/enumerate", body, c.opts.StreamTimeout)
		if err != nil {
			lastErr = fmt.Errorf("member %s: %w", m.Name, err)
			c.opts.ErrorLog.Printf("cluster: enumerate attempt %d on %s failed: %v", attempt+1, m.Name, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if retryableStatus(resp.StatusCode) && attempt+1 < c.opts.Attempts {
				lastErr = fmt.Errorf("member %s: status %d", m.Name, resp.StatusCode)
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				continue
			}
			if !streamed {
				relayResponse(w, resp)
				c.accountForward("enumerate", m.Name, resp.StatusCode)
				return
			}
			// The stream is already committed as 200; a terminal member
			// error now can only truncate it (no trailer), matching the
			// single-node contract for a broken stream.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			lastErr = fmt.Errorf("member %s: status %d after stream start", m.Name, resp.StatusCode)
			continue
		}

		done, err := c.relayVectorStream(w, flusher, resp.Body, seen, &journal, &journalFull, &streamed, &replayed)
		resp.Body.Close()
		if done {
			c.accountForward("enumerate", m.Name, http.StatusOK)
			return
		}
		lastErr = fmt.Errorf("member %s: stream broke: %v", m.Name, err)
		c.opts.ErrorLog.Printf("cluster: enumerate stream from %s broke after %d vectors: %v",
			m.Name, len(seen), err)
	}

	if !streamed {
		writeError(w, http.StatusBadGateway, "all %d attempts failed, last: %v", c.opts.Attempts, lastErr)
	}
	// A committed stream ends without a trailer: the truncation tells
	// the client the enumeration did not finish, same as a single node
	// dying on it.
	c.accountForward("enumerate", "", http.StatusBadGateway)
}

// relayVectorStream copies one member's JSONL enumeration stream to the
// client, deduplicating vectors against seen and journaling fresh ones.
// It returns done=true when the member's trailer arrived — the
// coordinator then writes its own trailer accounting the full relayed
// set — and done=false when the stream broke first.
func (c *Coordinator) relayVectorStream(w http.ResponseWriter, flusher http.Flusher, body io.Reader,
	seen map[string]bool, journal *[]json.RawMessage, journalFull *bool, streamed *bool, replayed *int) (bool, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return false, fmt.Errorf("bad stream line: %w", err)
		}
		if probe.Done != nil {
			// Member trailer. The coordinator owns the client-facing
			// trailer: Vectors counts the distinct vectors actually
			// relayed, Resumed the replays suppressed across handoffs.
			if !*streamed {
				c.startStream(w)
				*streamed = true
			}
			trailer, _ := json.Marshal(serve.EnumerateTrailer{ //nolint:errcheck // plain struct
				Done: true, Vectors: len(seen), Resumed: *replayed})
			w.Write(append(trailer, '\n')) //nolint:errcheck // client gone
			if flusher != nil {
				flusher.Flush()
			}
			return true, nil
		}
		var v core.ThreatVector
		if err := json.Unmarshal(line, &v); err != nil {
			return false, fmt.Errorf("bad vector line: %w", err)
		}
		if seen[v.Key()] {
			*replayed++
			continue
		}
		seen[v.Key()] = true
		if len(*journal) < c.opts.MaxJournal {
			*journal = append(*journal, json.RawMessage(bytes.Clone(line)))
		} else if !*journalFull {
			*journalFull = true
			c.opts.ErrorLog.Printf("cluster: enumerate journal full at %d vectors; a handoff now carries a prefix", c.opts.MaxJournal)
		}
		if !*streamed {
			c.startStream(w)
			*streamed = true
		}
		w.Write(append(bytes.Clone(line), '\n')) //nolint:errcheck // client gone
		if flusher != nil {
			flusher.Flush()
		}
	}
	err := sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF // stream ended with no trailer
	}
	return false, err
}

func (c *Coordinator) startStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
}

// carryEnumerateJournal serializes the coordinator's vector journal as
// a fingerprint-bound checkpoint and lands it on the next owner, so the
// re-issued request resumes instead of restarting. Best effort: without
// the config (no fingerprint) or with the PUT failing, the new owner
// restarts the search and the coordinator's dedup still guarantees the
// client a clean stream.
func (c *Coordinator) carryEnumerateJournal(ctx context.Context, to *memberState,
	req serve.EnumerateRequest, journal []json.RawMessage, journalFull bool) {
	outcome := "restarted"
	defer func() {
		c.reg.Inc("scadaver_cluster_handoffs_total", map[string]string{"outcome": outcome})
	}()
	fp := c.enumerateFingerprint(req)
	if fp == "" {
		return
	}
	ck := core.NewTransferCheckpoint(core.CheckpointKindEnumerate, fp, journal)
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		return
	}
	if c.putCheckpoint(ctx, to, req.RequestID, core.CheckpointKindEnumerate, buf.Bytes()) {
		outcome = "carried"
		if journalFull {
			outcome = "carried-prefix"
		}
	} else {
		outcome = "failed"
	}
}

// memberInfo is one member's entry in the membership and readiness
// bodies.
type memberInfo struct {
	Name     string  `json:"name"`
	URL      string  `json:"url"`
	State    string  `json:"state"`
	Phi      float64 `json:"phi"`
	LastErr  string  `json:"lastError,omitempty"`
	LastSeen string  `json:"lastSeen,omitempty"`
}

func (c *Coordinator) memberInfos() []memberInfo {
	members := c.memberSnapshot()
	out := make([]memberInfo, 0, len(members))
	for _, m := range members {
		lastErr, lastSeen := m.probeInfo()
		info := memberInfo{
			Name:    m.Name,
			URL:     m.URL,
			State:   m.det.State().String(),
			Phi:     math.Round(m.det.Phi()*100) / 100,
			LastErr: lastErr,
		}
		if !lastSeen.IsZero() {
			info.LastSeen = lastSeen.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, info)
	}
	return out
}

// clusterReadyz is the aggregated readiness body: ready while at least
// one member is alive, with Reasons naming each dependency that is not.
type clusterReadyz struct {
	Ready   bool         `json:"ready"`
	Reasons []string     `json:"reasons,omitempty"`
	Members []memberInfo `json:"members"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	infos := c.memberInfos()
	body := clusterReadyz{Members: infos}
	alive := 0
	for _, m := range infos {
		switch m.State {
		case StateAlive.String():
			alive++
		case StateSuspect.String():
			body.Reasons = append(body.Reasons, fmt.Sprintf("member %s suspect", m.Name))
		default:
			body.Reasons = append(body.Reasons, fmt.Sprintf("member %s down", m.Name))
		}
	}
	if len(infos) == 0 {
		body.Reasons = append(body.Reasons, "no members joined")
	}
	body.Ready = alive > 0
	code := http.StatusOK
	if !body.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (c *Coordinator) handleMembers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"members": c.memberInfos()})
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var m Member
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&m); err != nil {
		writeError(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	if err := c.addMember(m); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.updateMemberGauges()
	c.opts.ErrorLog.Printf("cluster: member %s joined at %s", m.Name, m.URL)
	writeJSON(w, http.StatusOK, map[string]any{"members": c.memberInfos()})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !c.removeMember(name) {
		writeError(w, http.StatusNotFound, "no member %q", name)
		return
	}
	c.updateMemberGauges()
	c.opts.ErrorLog.Printf("cluster: member %s removed", name)
	writeJSON(w, http.StatusOK, map[string]any{"members": c.memberInfos()})
}
