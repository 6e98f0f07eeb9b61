package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/rpc"
)

// The tenants bench exercises the multi-tenant control plane end to end:
// weighted-fair ingest scheduling under hundreds of concurrent sessions,
// shared-vs-isolated dedup domains, quota enforcement (including the
// typed error across the TCP wire), and the /metrics endpoint agreeing
// with Backend.Stats.

type tenantsConfig struct {
	Nodes    int
	Sessions int // total concurrent backup sessions across all tenants
	Seed     int64
}

const (
	tenantsCount = 8
	// schedCapacity is two 64KB scheduler quanta: small enough that the
	// weighted-fair queue — not the Go runtime — decides who ingests
	// next, so shares track tenant weights, not CPU luck.
	schedCapacity = 128 << 10
	tenantsWindow = 1200 * time.Millisecond
	loadFileSize  = 128 << 10
	domainDataMB  = 8
)

type tenantsReport struct {
	Experiment    string  `json:"experiment"`
	Nodes         int     `json:"nodes"`
	Tenants       int     `json:"tenants"`
	Sessions      int     `json:"sessions"`
	CapacityBytes int64   `json:"scheduler_capacity_bytes"`
	WindowSeconds float64 `json:"window_seconds"`

	// Phase 1: 8 equal-weight tenants, Sessions concurrent sessions of
	// unique data. Acceptance: spread (max/min per-tenant throughput)
	// stays ≤ 1.3.
	EqualPerTenantMBps []float64 `json:"equal_per_tenant_mb_s"`
	EqualSpread        float64   `json:"equal_spread_max_over_min"`
	EqualAggregateMBps float64   `json:"equal_aggregate_mb_s"`

	// Phase 2: one tenant gets weight 2, the rest keep 1. Acceptance:
	// its share is about twice a weight-1 tenant's.
	WeightedRatio         float64 `json:"weighted_ratio_observed"`
	WeightedAggregateMBps float64 `json:"weighted_aggregate_mb_s"`

	// Phase 3: identical data backed up by two shared-domain tenants and
	// two isolated-domain tenants.
	SharedSecondDedupRatio   float64 `json:"shared_second_tenant_dedup_ratio"`
	IsolatedSecondDedupRatio float64 `json:"isolated_second_tenant_dedup_ratio"`
	CrossTenantDedupBlocked  bool    `json:"cross_tenant_dedup_blocked"`

	// Phase 4/5: over-quota ingest fails with the typed error on the
	// simulator and across the TCP prototype (mid-stream soft check and
	// session-admission hard check).
	SimQuotaTyped      bool `json:"sim_quota_typed_error"`
	WireQuotaTyped     bool `json:"wire_quota_typed_error"`
	WireAdmissionTyped bool `json:"wire_admission_typed_error"`

	// Phase 6: GET /metrics cluster gauges equal Backend.Stats.
	MetricsMatchesStats bool `json:"metrics_matches_stats"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

func (r *tenantsReport) print(w *os.File) {
	fmt.Fprintf(w, "tenants: %d tenants, %d sessions, %d nodes, %d-byte scheduler capacity\n",
		r.Tenants, r.Sessions, r.Nodes, r.CapacityBytes)
	fmt.Fprintf(w, "  equal weights:   %.1f MB/s aggregate, per-tenant spread %.3fx (<=1.3x passes)\n",
		r.EqualAggregateMBps, r.EqualSpread)
	fmt.Fprintf(w, "  2x weight:       observed share ratio %.2fx (target ~2x), %.1f MB/s aggregate\n",
		r.WeightedRatio, r.WeightedAggregateMBps)
	fmt.Fprintf(w, "  dedup domains:   shared 2nd tenant DR %.1f, isolated 2nd tenant DR %.2f, cross-tenant dedup blocked: %v\n",
		r.SharedSecondDedupRatio, r.IsolatedSecondDedupRatio, r.CrossTenantDedupBlocked)
	fmt.Fprintf(w, "  quota:           sim typed %v, wire mid-stream typed %v, wire admission typed %v\n",
		r.SimQuotaTyped, r.WireQuotaTyped, r.WireAdmissionTyped)
	fmt.Fprintf(w, "  /metrics:        matches Backend.Stats: %v\n", r.MetricsMatchesStats)
	fmt.Fprintf(w, "  [completed in %.1fs]\n\n", r.ElapsedSeconds)
}

// tenantsLoadRun drives len(weights) tenants with cfg.Sessions concurrent
// sessions of unique data against a scheduler-capped simulator for a
// fixed window and returns committed bytes per tenant.
func tenantsLoadRun(cfg tenantsConfig, weights []int) ([]int64, float64, error) {
	cluster, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{
		Nodes:               cfg.Nodes,
		ChunkSize:           4096,
		IngestCapacityBytes: schedCapacity,
	})
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	for i, w := range weights {
		err := cluster.CreateTenant(ctx, sigmadedupe.TenantConfig{
			Name:   fmt.Sprintf("t%d", i),
			Domain: sigmadedupe.TenantShared,
			Weight: w,
		})
		if err != nil {
			return nil, 0, err
		}
	}
	workersPerTenant := cfg.Sessions / len(weights)
	if workersPerTenant < 1 {
		workersPerTenant = 1
	}
	bytes := make([]int64, len(weights))
	errCh := make(chan error, len(weights)*workersPerTenant)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for ti := range weights {
		for wi := 0; wi < workersPerTenant; wi++ {
			wg.Add(1)
			go func(ti, wi int) {
				defer wg.Done()
				sess, err := cluster.NewSession(ctx,
					sigmadedupe.WithSessionName(fmt.Sprintf("t%d-w%d", ti, wi)),
					sigmadedupe.WithTenant(fmt.Sprintf("t%d", ti)))
				if err != nil {
					errCh <- err
					return
				}
				defer sess.Close()
				src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed + int64(1000*ti+wi)))}
				<-start
				deadline := time.Now().Add(tenantsWindow)
				for f := 0; time.Now().Before(deadline); f++ {
					src.left = loadFileSize
					name := fmt.Sprintf("load/w%03d/f%05d", wi, f)
					if err := sess.Backup(ctx, name, src); err != nil {
						errCh <- err
						return
					}
					atomic.AddInt64(&bytes[ti], loadFileSize)
				}
			}(ti, wi)
		}
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	select {
	case err := <-errCh:
		return nil, 0, err
	default:
	}
	return bytes, elapsed, nil
}

// tenantsDomains backs up identical data under two shared-domain and two
// isolated-domain tenants and returns the second tenant's dedup ratio in
// each domain, plus the cluster for the /metrics phase.
func tenantsDomains(cfg tenantsConfig) (*sigmadedupe.Cluster, float64, float64, error) {
	cluster, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{
		Nodes:     cfg.Nodes,
		ChunkSize: 4096,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	ctx := context.Background()
	tenants := []struct {
		name   string
		domain sigmadedupe.TenantDomain
	}{
		{"shared-1", sigmadedupe.TenantShared},
		{"shared-2", sigmadedupe.TenantShared},
		{"isolated-1", sigmadedupe.TenantIsolated},
		{"isolated-2", sigmadedupe.TenantIsolated},
	}
	for _, t := range tenants {
		err := cluster.CreateTenant(ctx, sigmadedupe.TenantConfig{Name: t.name, Domain: t.domain})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	for _, t := range tenants {
		sess, err := cluster.NewSession(ctx,
			sigmadedupe.WithSessionName("domains"),
			sigmadedupe.WithTenant(t.name))
		if err != nil {
			return nil, 0, 0, err
		}
		// Same seed and a fresh source per tenant: byte-identical streams.
		src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed)), left: domainDataMB << 20}
		if err := sess.Backup(ctx, "corpus", src); err != nil {
			sess.Close()
			return nil, 0, 0, err
		}
		if err := sess.Flush(ctx); err != nil {
			sess.Close()
			return nil, 0, 0, err
		}
		sess.Close()
	}
	sts, err := cluster.Tenants(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	var sharedDR, isolatedDR float64
	for _, st := range sts {
		switch st.Name {
		case "shared-2":
			sharedDR = st.Usage.DedupRatio
		case "isolated-2":
			isolatedDR = st.Usage.DedupRatio
		}
	}
	return cluster, sharedDR, isolatedDR, nil
}

// tenantsSimQuota checks that an over-quota ingest on the simulator
// fails with the typed quota error.
func tenantsSimQuota(cfg tenantsConfig) (bool, error) {
	cluster, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{Nodes: 1, ChunkSize: 4096})
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	err = cluster.CreateTenant(ctx, sigmadedupe.TenantConfig{Name: "capped", QuotaBytes: 1 << 20})
	if err != nil {
		return false, err
	}
	sess, err := cluster.NewSession(ctx,
		sigmadedupe.WithSessionName("quota"), sigmadedupe.WithTenant("capped"))
	if err != nil {
		return false, err
	}
	defer sess.Close()
	src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed)), left: 4 << 20}
	err = sess.Backup(ctx, "too-big", src)
	if err == nil {
		err = sess.Flush(ctx)
	}
	return errors.Is(err, sigmadedupe.ErrQuotaExceeded), nil
}

// tenantsWireQuota checks quota enforcement across the real TCP wire: a
// served director, loopback dedup servers, and a dialed Remote. Both the
// mid-stream soft check and the session-admission hard check must fail
// with an error that still satisfies errors.Is(err, ErrQuotaExceeded)
// after crossing the director protocol.
func tenantsWireQuota(cfg tenantsConfig) (midStream, admission bool, err error) {
	ctx := context.Background()
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: i})
		if err != nil {
			return false, false, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	svc, err := rpc.NewDirectorServer(director.New(), "127.0.0.1:0")
	if err != nil {
		return false, false, err
	}
	defer svc.Close()
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "tenants-bench",
		DirectorAddr:   svc.Addr(),
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
	})
	if err != nil {
		return false, false, err
	}
	defer be.Close()

	// Mid-stream: a 4MB stream into a 1MB quota dies at the soft check.
	err = be.CreateTenant(ctx, sigmadedupe.TenantConfig{Name: "capped", QuotaBytes: 1 << 20})
	if err != nil {
		return false, false, err
	}
	sess, err := be.NewSession(ctx,
		sigmadedupe.WithSessionName("quota"), sigmadedupe.WithTenant("capped"))
	if err == nil {
		src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed)), left: 4 << 20}
		err = sess.Backup(ctx, "too-big", src)
		if err == nil {
			err = sess.Flush(ctx)
		}
		sess.Close()
	}
	midStream = errors.Is(err, sigmadedupe.ErrQuotaExceeded)

	// Admission: fill a tenant exactly to quota, then the next session
	// open is rejected by the director over TCP.
	err = be.CreateTenant(ctx, sigmadedupe.TenantConfig{Name: "full", QuotaBytes: 256 << 10})
	if err != nil {
		return midStream, false, err
	}
	sess, err = be.NewSession(ctx,
		sigmadedupe.WithSessionName("fill"), sigmadedupe.WithTenant("full"))
	if err != nil {
		return midStream, false, err
	}
	src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed + 1)), left: 256 << 10}
	if err := sess.Backup(ctx, "fill", src); err != nil {
		sess.Close()
		return midStream, false, err
	}
	if err := sess.Flush(ctx); err != nil {
		sess.Close()
		return midStream, false, err
	}
	sess.Close()
	sess, err = be.NewSession(ctx,
		sigmadedupe.WithSessionName("denied"), sigmadedupe.WithTenant("full"))
	if err == nil {
		src := &streamSource{rng: rand.New(rand.NewSource(cfg.Seed + 2)), left: 4 << 10}
		err = sess.Backup(ctx, "denied", src)
		if err == nil {
			err = sess.Flush(ctx)
		}
		sess.Close()
	}
	admission = errors.Is(err, sigmadedupe.ErrQuotaExceeded)
	return midStream, admission, nil
}

// tenantsMetrics serves the metrics endpoint over a populated cluster
// and checks the cluster gauges against Backend.Stats.
func tenantsMetrics(cluster *sigmadedupe.Cluster) (bool, error) {
	ms, err := sigmadedupe.ServeMetrics("127.0.0.1:0", cluster)
	if err != nil {
		return false, err
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var body struct {
		Cluster struct {
			LogicalBytes  int64 `json:"logical_bytes"`
			PhysicalBytes int64 `json:"physical_bytes"`
			Backups       int   `json:"backups"`
		} `json:"cluster"`
		Tenants []struct {
			Name string `json:"name"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	st, err := cluster.Stats(context.Background())
	if err != nil {
		return false, err
	}
	match := body.Cluster.LogicalBytes == st.LogicalBytes &&
		body.Cluster.PhysicalBytes == st.PhysicalBytes &&
		body.Cluster.Backups == st.Backups &&
		len(body.Tenants) > 0
	return match, nil
}

func runTenants(cfg tenantsConfig) (*tenantsReport, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 240
	}
	start := time.Now()
	rep := &tenantsReport{
		Experiment:    "tenants",
		Nodes:         cfg.Nodes,
		Tenants:       tenantsCount,
		Sessions:      cfg.Sessions,
		CapacityBytes: schedCapacity,
		WindowSeconds: tenantsWindow.Seconds(),
	}

	// Phase 1: equal weights.
	equal := make([]int, tenantsCount)
	for i := range equal {
		equal[i] = 1
	}
	bytes, elapsed, err := tenantsLoadRun(cfg, equal)
	if err != nil {
		return nil, fmt.Errorf("equal-weight load: %w", err)
	}
	var total, min, max int64
	for i, b := range bytes {
		rep.EqualPerTenantMBps = append(rep.EqualPerTenantMBps, float64(b)/(1<<20)/elapsed)
		total += b
		if i == 0 || b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min > 0 {
		rep.EqualSpread = float64(max) / float64(min)
	}
	rep.EqualAggregateMBps = float64(total) / (1 << 20) / elapsed

	// Phase 2: tenant 0 at weight 2, everyone else at 1.
	weighted := make([]int, tenantsCount)
	for i := range weighted {
		weighted[i] = 1
	}
	weighted[0] = 2
	bytes, elapsed, err = tenantsLoadRun(cfg, weighted)
	if err != nil {
		return nil, fmt.Errorf("weighted load: %w", err)
	}
	var others int64
	total = 0
	for i, b := range bytes {
		total += b
		if i > 0 {
			others += b
		}
	}
	if others > 0 {
		rep.WeightedRatio = float64(bytes[0]) / (float64(others) / float64(tenantsCount-1))
	}
	rep.WeightedAggregateMBps = float64(total) / (1 << 20) / elapsed

	// Phase 3: shared vs isolated dedup domains.
	cluster, sharedDR, isolatedDR, err := tenantsDomains(cfg)
	if err != nil {
		return nil, fmt.Errorf("dedup domains: %w", err)
	}
	rep.SharedSecondDedupRatio = sharedDR
	rep.IsolatedSecondDedupRatio = isolatedDR
	// Shared: the second tenant's identical stream dedups almost entirely
	// against the first (DR far above 1). Isolated: the salt blocks
	// cross-tenant matches, so the second tenant stores its full stream.
	rep.CrossTenantDedupBlocked = sharedDR > 4 && isolatedDR < 1.5

	// Phase 4: simulator quota.
	rep.SimQuotaTyped, err = tenantsSimQuota(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim quota: %w", err)
	}

	// Phase 5: quota across the TCP wire.
	rep.WireQuotaTyped, rep.WireAdmissionTyped, err = tenantsWireQuota(cfg)
	if err != nil {
		return nil, fmt.Errorf("wire quota: %w", err)
	}

	// Phase 6: /metrics vs Backend.Stats, on the domains cluster.
	rep.MetricsMatchesStats, err = tenantsMetrics(cluster)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}

	rep.ElapsedSeconds = time.Since(start).Seconds()
	return rep, nil
}
