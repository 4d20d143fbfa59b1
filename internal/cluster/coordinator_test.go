package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/scadanet"
	"scadaver/internal/serve"
	"scadaver/internal/synth"
)

func testConfig(t testing.TB) *scadanet.Config {
	t.Helper()
	cfg, err := synth.Generate(synth.Params{Bus: powergrid.Case5(), Seed: 7, Hierarchy: 2, SecureFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// newMember starts one real verification-service node and returns its
// handle, URL and metrics registry.
func newMember(t testing.TB, cfg *scadanet.Config, mutate func(*serve.Options)) (*serve.Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := serve.Options{
		Configs:       map[string]*scadanet.Config{"grid": cfg},
		QueueDepth:    8,
		Workers:       2,
		DefaultBudget: core.QueryBudget{Deadline: 5 * time.Second},
		Metrics:       reg,
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	return srv, ts, reg
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// newTestCoordinator wires a coordinator over the given member URLs.
func newTestCoordinator(t testing.TB, members []Member, mutate func(*Options)) (*Coordinator, *httptest.Server) {
	t.Helper()
	opts := Options{
		Members:           members,
		HeartbeatInterval: time.Hour, // tests that need probing set their own cadence
		RetryBackoff:      time.Millisecond,
		MaxRetryBackoff:   5 * time.Millisecond,
		Configs:           map[string]*scadanet.Config{"grid": testConfig(t)},
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func TestCoordinatorForwardsVerify(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	_, coord := newTestCoordinator(t, []Member{
		{Name: "m1", URL: m1.URL}, {Name: "m2", URL: m2.URL}}, nil)

	req := serve.VerifyRequest{Config: "grid",
		Query: core.Query{Property: core.Observability, Combined: true, K: 0}}
	direct := decodeBody[serve.VerifyResponse](t, postJSON(t, m1.URL+"/v1/verify", req))
	via := postJSON(t, coord.URL+"/v1/verify", req)
	if via.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(via.Body)
		t.Fatalf("coordinator verify = %d, body %s", via.StatusCode, raw)
	}
	got := decodeBody[serve.VerifyResponse](t, via)
	if got.Resilient != direct.Resilient {
		t.Fatalf("coordinator verdict %v != direct member verdict %v", got.Resilient, direct.Resilient)
	}
}

// TestCoordinatorFailoverKeepsServing kills the owner of the config
// outright and asserts verify still succeeds: the request fails over to
// the survivor within the attempt budget.
func TestCoordinatorFailoverKeepsServing(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	reg := obs.NewRegistry()
	c, coord := newTestCoordinator(t, []Member{
		{Name: "m1", URL: m1.URL}, {Name: "m2", URL: m2.URL}},
		func(o *Options) { o.Metrics = reg })
	// Kill the member every "grid" request routes to first; the
	// coordinator has not probed it yet, so the request must fail over.
	if c.candidates(configKey("grid"))[0].Name == "m1" {
		m1.Close()
	} else {
		m2.Close()
	}

	query := core.Query{Property: core.Observability, Combined: true, K: 1}
	resp := postJSON(t, coord.URL+"/v1/verify", serve.VerifyRequest{Config: "grid", Query: query})
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("verify routed to a dead member = %d, body %s", resp.StatusCode, raw)
	}
	resp.Body.Close()
	if reg.Counter("scadaver_cluster_failovers_total", nil) == 0 {
		t.Fatal("request succeeded without counting a failover")
	}
}

func TestCoordinatorJoinLeaveMembers(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	_, coord := newTestCoordinator(t, []Member{{Name: "m1", URL: m1.URL}}, nil)

	type membersBody struct {
		Members []memberInfo `json:"members"`
	}
	got := decodeBody[membersBody](t, mustGet(t, coord.URL+"/v1/cluster/members"))
	if len(got.Members) != 1 || got.Members[0].Name != "m1" {
		t.Fatalf("seed membership = %+v, want [m1]", got.Members)
	}

	resp := postJSON(t, coord.URL+"/v1/cluster/join", Member{Name: "m2", URL: m2.URL})
	joined := decodeBody[membersBody](t, resp)
	if resp.StatusCode != http.StatusOK || len(joined.Members) != 2 {
		t.Fatalf("join = %d with %d members, want 200 with 2", resp.StatusCode, len(joined.Members))
	}

	// A bad join is rejected.
	bad := postJSON(t, coord.URL+"/v1/cluster/join", Member{Name: "", URL: "not a url"})
	io.Copy(io.Discard, bad.Body) //nolint:errcheck
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-name join = %d, want 400", bad.StatusCode)
	}

	del, err := http.NewRequest(http.MethodDelete, coord.URL+"/v1/cluster/members/m2", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	left := decodeBody[membersBody](t, delResp)
	if delResp.StatusCode != http.StatusOK || len(left.Members) != 1 {
		t.Fatalf("leave = %d with %d members, want 200 with 1", delResp.StatusCode, len(left.Members))
	}
}

// TestCoordinatorReadyzNamesDownMember runs real probing: with one
// member killed, /readyz stays ready (a live member remains) and the
// Reasons name exactly which member is down.
func TestCoordinatorReadyzNamesDownMember(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	_, coord := newTestCoordinator(t, []Member{
		{Name: "m1", URL: m1.URL}, {Name: "m2", URL: m2.URL}},
		func(o *Options) {
			o.HeartbeatInterval = 10 * time.Millisecond
			o.Detector = DetectorOptions{Window: 8, Expected: 10 * time.Millisecond}
		})
	m2.Close()

	waitFor(t, 5*time.Second, func() bool {
		body := decodeBody[clusterReadyz](t, mustGet(t, coord.URL+"/readyz"))
		if !body.Ready {
			return false
		}
		for _, reason := range body.Reasons {
			if strings.Contains(reason, "m2") {
				return true
			}
		}
		return false
	})
	body := decodeBody[clusterReadyz](t, mustGet(t, coord.URL+"/readyz"))
	for _, reason := range body.Reasons {
		if strings.Contains(reason, "m1") {
			t.Fatalf("readyz blames the healthy member: %v", body.Reasons)
		}
	}

	m1.Close()
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(coord.URL + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode == http.StatusServiceUnavailable
	})
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestCoordinatorRelaysPatchAndSubscribe asserts config-name affinity
// for live mutation: a subscriber through the coordinator streams the
// greeting and, after a PATCH relayed through the coordinator, the
// mutation event — both served by the same ring owner, so the verdicts
// come from the member whose delta-aware cache evolved.
func TestCoordinatorRelaysPatchAndSubscribe(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	_, coord := newTestCoordinator(t, []Member{
		{Name: "m1", URL: m1.URL}, {Name: "m2", URL: m2.URL}}, nil)

	sub, err := http.Get(coord.URL + "/v1/subscribe?config=grid")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe via coordinator = %d", sub.StatusCode)
	}
	lines := bufio.NewScanner(sub.Body)
	if !lines.Scan() {
		t.Fatalf("no greeting line: %v", lines.Err())
	}
	var hello serve.MutationEvent
	if err := json.Unmarshal(lines.Bytes(), &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Config != "grid" || hello.Version != 1 {
		t.Fatalf("greeting = %+v, want grid v1", hello)
	}

	victim := cfg.Net.Links()[0].ID
	raw, err := json.Marshal(serve.PatchRequest{
		Delta: fmt.Sprintf("link-remove %d", victim)})
	if err != nil {
		t.Fatal(err)
	}
	preq, err := http.NewRequest(http.MethodPatch, coord.URL+"/v1/configs/grid", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Content-Type", "application/json")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(presp.Body)
		presp.Body.Close()
		t.Fatalf("PATCH via coordinator = %d, body %s", presp.StatusCode, body)
	}
	ev := decodeBody[serve.MutationEvent](t, presp)
	if ev.Version != 2 || len(ev.Verdicts) != 3 {
		t.Fatalf("relayed PATCH response = %+v, want v2 with 3 verdicts", ev)
	}

	// The same event arrives on the relayed stream: PATCH and subscribe
	// landed on the same ring owner.
	if !lines.Scan() {
		t.Fatalf("no mutation event on relayed stream: %v", lines.Err())
	}
	var streamed serve.MutationEvent
	if err := json.Unmarshal(lines.Bytes(), &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.Version != ev.Version || len(streamed.Verdicts) != len(ev.Verdicts) {
		t.Fatalf("streamed event %+v != PATCH response %+v", streamed, ev)
	}

	// An invalid delta relays the member's 422 through unchanged.
	badRaw, _ := json.Marshal(serve.PatchRequest{Delta: "link-remove 9999"})
	breq, err := http.NewRequest(http.MethodPatch, coord.URL+"/v1/configs/grid", bytes.NewReader(badRaw))
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid relayed PATCH = %d, want 422 (body %s)", bresp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown link") {
		t.Fatalf("relayed 422 body %q lacks the sentinel", body)
	}
}

// TestCoordinatorReadsFollowPatch: after a PATCH through the
// coordinator, every read of that configuration answers for the new
// version, whatever the query. The reads checked are exactly the query
// variants a per-query hash would have sent to the member that never
// saw the PATCH.
func TestCoordinatorReadsFollowPatch(t *testing.T) {
	cfg := testConfig(t)
	_, m1, _ := newMember(t, cfg, nil)
	_, m2, _ := newMember(t, cfg, nil)
	c, coord := newTestCoordinator(t, []Member{
		{Name: "m1", URL: m1.URL}, {Name: "m2", URL: m2.URL}}, nil)
	owner := c.candidates(configKey("grid"))[0].Name

	// Query variants whose per-query key (config plus query shape) is
	// owned by the other member.
	var variants []core.Query
	for k := 0; k <= 2; k++ {
		for _, q := range []core.Query{
			{Property: core.Observability, Combined: true, K: k},
			{Property: core.SecuredObservability, Combined: true, K: k},
			{Property: core.BadDataDetectability, Combined: true, K: k, R: 1},
		} {
			raw, err := json.Marshal([]any{"verify", "grid", q})
			if err != nil {
				t.Fatal(err)
			}
			if c.candidates(string(raw))[0].Name != owner {
				variants = append(variants, q)
			}
		}
	}
	if len(variants) == 0 {
		t.Fatal("every query variant hashes to the config owner; the fixture needs more variants")
	}

	resilient := func(cfg *scadanet.Config, q core.Query) bool {
		t.Helper()
		a, err := core.NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Resilient()
	}
	// The degrading delta: the single field-device failure that flips
	// the most variant verdicts.
	var delta scadanet.Delta
	var next *scadanet.Config
	best := 0
	for _, d := range cfg.Net.Devices() {
		if !d.FieldDevice() {
			continue
		}
		cand := scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpDeviceDown, Device: d.ID}}}
		mutated, _, err := cfg.Apply(cand)
		if err != nil {
			continue
		}
		flips := 0
		for _, q := range variants {
			if resilient(cfg, q) != resilient(mutated, q) {
				flips++
			}
		}
		if flips > best {
			best, delta, next = flips, cand, mutated
		}
	}
	if best == 0 {
		t.Fatal("no single device failure changes a variant's verdict")
	}

	raw, err := json.Marshal(serve.PatchRequest{Ops: delta.Ops})
	if err != nil {
		t.Fatal(err)
	}
	preq, err := http.NewRequest(http.MethodPatch, coord.URL+"/v1/configs/grid", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	if ev := decodeBody[serve.MutationEvent](t, presp); presp.StatusCode != http.StatusOK || ev.Version != 2 {
		t.Fatalf("PATCH via coordinator = %d, event %+v; want 200 with version 2", presp.StatusCode, ev)
	}

	for _, q := range variants {
		resp := postJSON(t, coord.URL+"/v1/verify", serve.VerifyRequest{Config: "grid", Query: q})
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%v: verify = %d, body %s", q, resp.StatusCode, raw)
		}
		got := decodeBody[serve.VerifyResponse](t, resp)
		if want := resilient(next, q); got.Resilient != want {
			t.Fatalf("%v after %v: resilient = %v, want %v (the patched version's verdict)", q, delta, got.Resilient, want)
		}
	}
}
