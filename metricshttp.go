package sigmadedupe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// tenantSource is the control-plane surface the metrics endpoint serves:
// both Backend implementations satisfy it via TenantAdmin, and a bare
// Director is adapted (sigma-director exposes /metrics without any
// backend attached).
type tenantSource interface {
	Tenants(ctx context.Context) ([]TenantStatus, error)
	CreateTenant(ctx context.Context, cfg TenantConfig) error
	SetTenantQuota(ctx context.Context, tenant string, quota int64) error
	SetTenantWeight(ctx context.Context, tenant string, weight int) error
}

// statsSource is the optional cluster-wide gauge provider (backends
// have one; a bare director does not).
type statsSource interface {
	Stats(ctx context.Context) (BackendStats, error)
}

// MetricsServer is a running metrics/admin HTTP endpoint (ServeMetrics,
// ServeDirectorMetrics).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the endpoint's bound address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the endpoint down, waiting briefly for in-flight requests.
func (m *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// tenantMetrics is the JSON gauge row of one tenant — configuration
// plus the ingest/restore/dedup-ratio counters, all derived from the
// same accounting Backend.Stats aggregates.
type tenantMetrics struct {
	Name          string  `json:"name"`
	Domain        string  `json:"domain"`
	QuotaBytes    int64   `json:"quota_bytes"`
	Weight        int     `json:"weight"`
	LiveBytes     int64   `json:"live_bytes"`
	LogicalBytes  int64   `json:"logical_bytes"`
	StoredBytes   int64   `json:"stored_bytes"`
	RestoredBytes int64   `json:"restored_bytes"`
	Backups       int64   `json:"backups"`
	DedupRatio    float64 `json:"dedup_ratio"`
}

// clusterMetrics is the JSON shape of the backend-wide gauges
// (Backend.Stats plus GC counters when the backend exposes them).
type clusterMetrics struct {
	LogicalBytes  int64    `json:"logical_bytes"`
	PhysicalBytes int64    `json:"physical_bytes"`
	DedupRatio    float64  `json:"dedup_ratio"`
	Backups       int      `json:"backups"`
	Nodes         int      `json:"nodes"`
	StorageSkew   float64  `json:"storage_skew"`
	GC            *GCStats `json:"gc,omitempty"`
}

// metricsReport is the GET /metrics response body.
type metricsReport struct {
	Cluster *clusterMetrics `json:"cluster,omitempty"`
	Tenants []tenantMetrics `json:"tenants"`
}

func toTenantMetrics(st TenantStatus) tenantMetrics {
	return tenantMetrics{
		Name:          st.Name,
		Domain:        string(st.Domain),
		QuotaBytes:    st.QuotaBytes,
		Weight:        st.Weight,
		LiveBytes:     st.Usage.LiveBytes,
		LogicalBytes:  st.Usage.LogicalBytes,
		StoredBytes:   st.Usage.StoredBytes,
		RestoredBytes: st.Usage.RestoredBytes,
		Backups:       st.Usage.Backups,
		DedupRatio:    st.Usage.DedupRatio,
	}
}

// ServeMetrics starts the metrics/admin HTTP endpoint of a backend on
// addr (":0" picks a free port; the bound address is MetricsServer.Addr).
// The API is JSON end to end:
//
//	GET  /metrics                  cluster gauges (Backend.Stats) + per-tenant gauges
//	GET  /tenants                  tenant list with usage
//	POST /tenants                  create a tenant {name, domain, quota_bytes, weight}
//	POST /tenants/{name}/quota     set quota {quota_bytes}
//	POST /tenants/{name}/weight    set weight {weight}
func ServeMetrics(addr string, b Backend) (*MetricsServer, error) {
	admin, ok := b.(TenantAdmin)
	if !ok {
		return nil, fmt.Errorf("sigmadedupe: backend %T does not implement TenantAdmin", b)
	}
	var gc func(context.Context) (GCStats, error)
	if p, ok := b.(interface {
		gcStats(context.Context) (GCStats, error)
	}); ok {
		gc = p.gcStats
	}
	return serveMetrics(addr, tenantAdminSource{admin}, b, gc)
}

// tenantAdminSource adapts the public TenantAdmin to the endpoint's
// source interface (TenantAdmin also carries restore/delete verbs the
// endpoint does not expose).
type tenantAdminSource struct{ TenantAdmin }

// ServeDirectorMetrics starts the metrics/admin endpoint over a bare
// Director — the deployment where sigma-director runs the control plane
// and no Backend lives in the same process. Cluster gauges are limited
// to what the director knows (retained backup count).
func ServeDirectorMetrics(addr string, d *Director) (*MetricsServer, error) {
	return serveMetrics(addr, directorSource{d}, directorSource{d}, nil)
}

// directorSource adapts a bare *Director to the endpoint interfaces.
type directorSource struct{ d *Director }

func (s directorSource) Tenants(ctx context.Context) ([]TenantStatus, error) {
	sts, err := s.d.Tenants(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]TenantStatus, len(sts))
	for i, st := range sts {
		out[i] = toTenantStatus(st.Info, st.Usage)
	}
	return out, nil
}

func (s directorSource) CreateTenant(ctx context.Context, cfg TenantConfig) error {
	return s.d.CreateTenant(ctx, toTenantInfo(cfg))
}

func (s directorSource) SetTenantQuota(ctx context.Context, tenant string, quota int64) error {
	return s.d.SetTenantQuota(ctx, tenant, quota)
}

func (s directorSource) SetTenantWeight(ctx context.Context, tenant string, weight int) error {
	return s.d.SetTenantWeight(ctx, tenant, weight)
}

func (s directorSource) Stats(ctx context.Context) (BackendStats, error) {
	if err := ctx.Err(); err != nil {
		return BackendStats{}, err
	}
	return BackendStats{Backups: len(s.d.Files())}, nil
}

// serveMetrics serves src's tenant table, stats' gauges (nil: none) and
// gc's counters (nil: none).
func serveMetrics(addr string, src tenantSource, stats statsSource, gc func(context.Context) (GCStats, error)) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		report := metricsReport{Tenants: []tenantMetrics{}}
		if stats != nil {
			st, err := stats.Stats(r.Context())
			if err != nil {
				writeHTTPError(w, err)
				return
			}
			report.Cluster = &clusterMetrics{
				LogicalBytes:  st.LogicalBytes,
				PhysicalBytes: st.PhysicalBytes,
				DedupRatio:    st.DedupRatio,
				Backups:       st.Backups,
				Nodes:         st.Nodes,
				StorageSkew:   st.StorageSkew,
			}
			if gc != nil {
				g, err := gc(r.Context())
				if err != nil {
					writeHTTPError(w, err)
					return
				}
				report.Cluster.GC = &g
			}
		}
		sts, err := src.Tenants(r.Context())
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		for _, st := range sts {
			report.Tenants = append(report.Tenants, toTenantMetrics(st))
		}
		writeJSON(w, http.StatusOK, report)
	})
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		sts, err := src.Tenants(r.Context())
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		rows := make([]tenantMetrics, len(sts))
		for i, st := range sts {
			rows[i] = toTenantMetrics(st)
		}
		writeJSON(w, http.StatusOK, rows)
	})
	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Name       string `json:"name"`
			Domain     string `json:"domain"`
			QuotaBytes int64  `json:"quota_bytes"`
			Weight     int    `json:"weight"`
		}
		if err := decodeJSON(r, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		err := src.CreateTenant(r.Context(), TenantConfig{
			Name:       body.Name,
			Domain:     TenantDomain(body.Domain),
			QuotaBytes: body.QuotaBytes,
			Weight:     body.Weight,
		})
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /tenants/{name}/quota", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			QuotaBytes int64 `json:"quota_bytes"`
		}
		if err := decodeJSON(r, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if err := src.SetTenantQuota(r.Context(), r.PathValue("name"), body.QuotaBytes); err != nil {
			writeHTTPError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /tenants/{name}/weight", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Weight int `json:"weight"`
		}
		if err := decodeJSON(r, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if err := src.SetTenantWeight(r.Context(), r.PathValue("name"), body.Weight); err != nil {
			writeHTTPError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	m := &MetricsServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	go m.srv.Serve(ln)
	return m, nil
}

// decodeJSON reads one JSON body, bounded (the admin API has no large
// payloads) and strict about trailing garbage.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeHTTPError maps the error taxonomy onto HTTP status codes.
func writeHTTPError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrQuotaExceeded):
		code = http.StatusForbidden
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
