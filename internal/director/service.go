package director

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sigmadedupe/internal/sderr"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// Metadata is the director API surface used by backup clients. Both the
// in-process *Director and the TCP Remote client satisfy it. Recipe
// paths are composite tenant keys (tenant.Key); BeginSession is the
// hard quota-admission point and TenantStatus feeds the client's soft
// mid-stream quota check.
type Metadata interface {
	BeginSession(ctx context.Context, client, tenantName string) (uint64, error)
	EndSession(ctx context.Context, id uint64) error
	// SwapRecipe installs a path's recipe and returns the generation it
	// superseded (Gen 0: none) — atomically, so the caller releases the
	// old generation's chunk references exactly once.
	SwapRecipe(ctx context.Context, session uint64, path string, chunks []ChunkEntry) (Recipe, error)
	GetRecipe(ctx context.Context, path string) (Recipe, error)
	DeleteRecipe(ctx context.Context, path string) (Recipe, error)
	TenantStatus(ctx context.Context, name string) (TenantStatus, error)
	AccountTransfer(ctx context.Context, name string, stored, restored int64) error
}

// TenantAdmin is the tenant CRUD surface. Both the in-process *Director
// and the TCP Remote client satisfy it.
type TenantAdmin interface {
	CreateTenant(ctx context.Context, info tenant.Info) error
	Tenants(ctx context.Context) ([]TenantStatus, error)
	TenantStatus(ctx context.Context, name string) (TenantStatus, error)
	SetTenantQuota(ctx context.Context, name string, quota int64) error
	SetTenantWeight(ctx context.Context, name string, weight int) error
}

var (
	_ Metadata    = (*Director)(nil)
	_ Metadata    = (*Remote)(nil)
	_ TenantAdmin = (*Director)(nil)
	_ TenantAdmin = (*Remote)(nil)
)

// wire op codes for the director protocol.
type dirOp int

const (
	opBegin dirOp = iota + 1
	opEnd
	opPut
	opGet
	opDelete
	opFiles
	opMembers
	opSetMembers
	opMigBegin
	opMigEnd
	opMigPending
	opRecipes
	opReplace
	opTenantCreate
	opTenantList
	opTenantGet
	opTenantSetQuota
	opTenantSetWeight
	opAccount
)

type dirRequest struct {
	Op      dirOp
	Client  string
	Session uint64
	Path    string
	Chunks  []ChunkEntry
	Nodes   []NodeInfo
	Epoch   uint64
	Gen     uint64
	Mig     Migration
	MigID   uint64
	// Tenant control-plane fields.
	Tenant   string
	Domain   string
	Quota    int64
	Weight   int64
	Stored   int64
	Restored int64
}

type dirResponse struct {
	Err     string
	Session uint64
	Recipe  Recipe
	Files   []string
	Members MembershipInfo
	MigID   uint64
	Migs    []Migration
	Recipes []Recipe
	Tenants []TenantStatus
}

// Service exposes a Director over TCP with a simple sequential
// request/response protocol per connection, using the shared
// length-prefixed binary framing (internal/wire, ProtoDirector).
type Service struct {
	dir *Director
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a director service on addr.
func Serve(dir *Director, addr string) (*Service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("director: listen %s: %w", addr, err)
	}
	s := &Service{dir: dir, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Close stops the service.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Service) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Service) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	if _, err := wire.ReadHandshake(br, wire.ProtoDirector); err != nil {
		return
	}
	if err := wire.WriteHandshake(conn, wire.ProtoDirector); err != nil {
		return
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	var scratch []byte
	for {
		body, err := wire.ReadFrame(br, maxDirFrame)
		if err != nil {
			return
		}
		req, err := decodeDirRequest(body)
		wire.PutBuf(body)
		if err != nil {
			return
		}
		var resp dirResponse
		switch req.Op {
		case opBegin:
			id, err := s.dir.BeginSession(context.Background(), req.Client, req.Tenant)
			resp.Session, resp.Err = id, sderr.Encode(err)
		case opEnd:
			resp.Err = sderr.Encode(s.dir.EndSession(context.Background(), req.Session))
		case opPut:
			prev, err := s.dir.SwapRecipe(context.Background(), req.Session, req.Path, req.Chunks)
			resp.Recipe, resp.Err = prev, sderr.Encode(err)
		case opGet:
			r, err := s.dir.GetRecipe(context.Background(), req.Path)
			if err != nil {
				resp.Err = sderr.Encode(err)
			} else {
				resp.Recipe = r
			}
		case opDelete:
			r, err := s.dir.DeleteRecipe(context.Background(), req.Path)
			if err != nil {
				resp.Err = sderr.Encode(err)
			} else {
				resp.Recipe = r
			}
		case opFiles:
			resp.Files = s.dir.Files()
		case opMembers:
			m, err := s.dir.Members(context.Background())
			resp.Members, resp.Err = m, sderr.Encode(err)
		case opSetMembers:
			m, err := s.dir.SetMembers(context.Background(), req.Epoch, req.Nodes)
			resp.Members, resp.Err = m, sderr.Encode(err)
		case opMigBegin:
			id, err := s.dir.BeginMigration(context.Background(), req.Mig)
			resp.MigID, resp.Err = id, sderr.Encode(err)
		case opMigEnd:
			resp.Err = sderr.Encode(s.dir.EndMigration(context.Background(), req.MigID))
		case opMigPending:
			migs, err := s.dir.PendingMigrations(context.Background())
			resp.Migs, resp.Err = migs, sderr.Encode(err)
		case opRecipes:
			recipes, err := s.dir.Recipes(context.Background())
			resp.Recipes, resp.Err = recipes, sderr.Encode(err)
		case opReplace:
			resp.Err = sderr.Encode(s.dir.ReplaceRecipe(context.Background(), req.Path, req.Session, req.Gen, req.Chunks))
		case opTenantCreate:
			resp.Err = sderr.Encode(s.dir.CreateTenant(context.Background(), tenant.Info{
				Name: req.Tenant, Domain: req.Domain, QuotaBytes: req.Quota, Weight: int(req.Weight),
			}))
		case opTenantList:
			ts, err := s.dir.Tenants(context.Background())
			resp.Tenants, resp.Err = ts, sderr.Encode(err)
		case opTenantGet:
			st, err := s.dir.TenantStatus(context.Background(), req.Tenant)
			if err != nil {
				resp.Err = sderr.Encode(err)
			} else {
				resp.Tenants = []TenantStatus{st}
			}
		case opTenantSetQuota:
			resp.Err = sderr.Encode(s.dir.SetTenantQuota(context.Background(), req.Tenant, req.Quota))
		case opTenantSetWeight:
			resp.Err = sderr.Encode(s.dir.SetTenantWeight(context.Background(), req.Tenant, int(req.Weight)))
		case opAccount:
			resp.Err = sderr.Encode(s.dir.AccountTransfer(context.Background(), req.Tenant, req.Stored, req.Restored))
		default:
			resp.Err = fmt.Sprintf("director: unknown op %d", int(req.Op))
		}
		scratch = appendDirResponse(scratch[:0], &resp)
		if err := wire.WriteFrame(bw, scratch); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Remote is a TCP client for a director Service. Safe for concurrent use
// (calls are serialized on the single connection).
type Remote struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	scratch []byte
	// err marks the connection permanently failed. The protocol has no
	// request IDs, so once a call is abandoned mid-round-trip (canceled,
	// timed out, transport error) a later call could otherwise decode
	// the stale response as its own; instead the connection is closed
	// and every later call fails fast with this sticky error.
	err error
}

// DialRemote connects to a director service.
func DialRemote(addr string) (*Remote, error) {
	return DialRemoteContext(context.Background(), addr)
}

// DialRemoteContext connects to a director service, honoring ctx for
// the dial itself (deadline and cancellation).
func DialRemoteContext(ctx context.Context, addr string) (*Remote, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("director: dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := wire.WriteHandshake(conn, wire.ProtoDirector); err != nil {
		conn.Close()
		return nil, fmt.Errorf("director: handshake %s: %w", addr, err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	if _, err := wire.ReadHandshake(br, wire.ProtoDirector); err != nil {
		conn.Close()
		return nil, fmt.Errorf("director: handshake %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &Remote{conn: conn, br: br}, nil
}

// Close releases the connection.
func (r *Remote) Close() error { return r.conn.Close() }

func (r *Remote) call(ctx context.Context, req dirRequest) (dirResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return dirResponse{}, r.err
	}
	if err := ctx.Err(); err != nil {
		return dirResponse{}, err
	}
	// The round trip is synchronous on one connection; a context watcher
	// turns cancellation into a connection deadline so neither the send
	// nor the receive can outlive the caller's budget. The connection is
	// torn by a fired deadline (the request/response framing is broken
	// mid-stream), which is the correct cost of abandoning the call.
	watchStop, watchDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			r.conn.SetDeadline(time.Unix(1, 0))
		case <-watchStop:
		}
	}()
	if dl, ok := ctx.Deadline(); ok {
		r.conn.SetDeadline(dl)
	}
	r.scratch = appendDirRequest(r.scratch[:0], &req)
	err := wire.WriteFrame(r.conn, r.scratch)
	var resp dirResponse
	if err == nil {
		var body []byte
		body, err = wire.ReadFrame(r.br, maxDirFrame)
		if err == nil {
			resp, err = decodeDirResponse(body)
			wire.PutBuf(body)
		}
	}
	close(watchStop)
	<-watchDone // joined: no stale deadline can land after the reset
	r.conn.SetDeadline(time.Time{})
	if err != nil {
		// The round trip was abandoned with the stream state unknown —
		// the reply of this call may still arrive and would be decoded
		// as the next call's response. Poison and close the connection.
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("director: call canceled: %w", cerr)
		} else {
			err = fmt.Errorf("director: call: %w", err)
		}
		r.err = err
		r.conn.Close()
		return dirResponse{}, err
	}
	if resp.Err != "" {
		return resp, wireError(resp.Err)
	}
	return resp, nil
}

// wireError rehydrates the sentinel errors callers dispatch on (a
// missing recipe must stay distinguishable from a transport failure —
// the client's supersede logic skips its decref only on ErrNoRecipe).
// The taxonomy codec restores the sderr sentinel; the director-level
// sentinels are re-attached on top so errors.Is holds for both.
func wireError(msg string) error {
	err := sderr.Decode(msg)
	switch {
	case errors.Is(err, sderr.ErrNotFound):
		return fmt.Errorf("%w: %w", ErrNoRecipe, err)
	case errors.Is(err, sderr.ErrNoSession):
		return fmt.Errorf("%w: %w", ErrNoSession, err)
	case errors.Is(err, sderr.ErrConflict):
		return fmt.Errorf("%w: %w", ErrRecipeConflict, err)
	}
	return err
}

// BeginSession implements Metadata: quota admission happens on the
// director, and a refusal decodes back to sderr.ErrQuotaExceeded.
func (r *Remote) BeginSession(ctx context.Context, client, tenantName string) (uint64, error) {
	resp, err := r.call(ctx, dirRequest{Op: opBegin, Client: client, Tenant: tenantName})
	if err != nil {
		return 0, err
	}
	return resp.Session, nil
}

// EndSession implements Metadata.
func (r *Remote) EndSession(ctx context.Context, id uint64) error {
	_, err := r.call(ctx, dirRequest{Op: opEnd, Session: id})
	return err
}

// SwapRecipe implements Metadata.
func (r *Remote) SwapRecipe(ctx context.Context, session uint64, path string, chunks []ChunkEntry) (Recipe, error) {
	resp, err := r.call(ctx, dirRequest{Op: opPut, Session: session, Path: path, Chunks: chunks})
	if err != nil {
		return Recipe{}, err
	}
	return resp.Recipe, nil
}

// GetRecipe implements Metadata.
func (r *Remote) GetRecipe(ctx context.Context, path string) (Recipe, error) {
	resp, err := r.call(ctx, dirRequest{Op: opGet, Path: path})
	if err != nil {
		return Recipe{}, err
	}
	return resp.Recipe, nil
}

// DeleteRecipe implements Metadata.
func (r *Remote) DeleteRecipe(ctx context.Context, path string) (Recipe, error) {
	resp, err := r.call(ctx, dirRequest{Op: opDelete, Path: path})
	if err != nil {
		return Recipe{}, err
	}
	return resp.Recipe, nil
}

// Files lists all paths with recipes on the remote director, sorted.
func (r *Remote) Files(ctx context.Context) ([]string, error) {
	resp, err := r.call(ctx, dirRequest{Op: opFiles})
	if err != nil {
		return nil, err
	}
	return resp.Files, nil
}

// Members implements ClusterMeta.
func (r *Remote) Members(ctx context.Context) (MembershipInfo, error) {
	resp, err := r.call(ctx, dirRequest{Op: opMembers})
	if err != nil {
		return MembershipInfo{}, err
	}
	return resp.Members, nil
}

// SetMembers implements ClusterMeta.
func (r *Remote) SetMembers(ctx context.Context, ifEpoch uint64, nodes []NodeInfo) (MembershipInfo, error) {
	resp, err := r.call(ctx, dirRequest{Op: opSetMembers, Epoch: ifEpoch, Nodes: nodes})
	if err != nil {
		return MembershipInfo{}, err
	}
	return resp.Members, nil
}

// BeginMigration implements ClusterMeta.
func (r *Remote) BeginMigration(ctx context.Context, m Migration) (uint64, error) {
	resp, err := r.call(ctx, dirRequest{Op: opMigBegin, Mig: m})
	if err != nil {
		return 0, err
	}
	return resp.MigID, nil
}

// EndMigration implements ClusterMeta.
func (r *Remote) EndMigration(ctx context.Context, id uint64) error {
	_, err := r.call(ctx, dirRequest{Op: opMigEnd, MigID: id})
	return err
}

// PendingMigrations implements ClusterMeta.
func (r *Remote) PendingMigrations(ctx context.Context) ([]Migration, error) {
	resp, err := r.call(ctx, dirRequest{Op: opMigPending})
	if err != nil {
		return nil, err
	}
	return resp.Migs, nil
}

// Recipes implements ClusterMeta.
func (r *Remote) Recipes(ctx context.Context) ([]Recipe, error) {
	resp, err := r.call(ctx, dirRequest{Op: opRecipes})
	if err != nil {
		return nil, err
	}
	return resp.Recipes, nil
}

// ReplaceRecipe implements ClusterMeta.
func (r *Remote) ReplaceRecipe(ctx context.Context, path string, ifSession, ifGen uint64, chunks []ChunkEntry) error {
	_, err := r.call(ctx, dirRequest{Op: opReplace, Path: path, Session: ifSession, Gen: ifGen, Chunks: chunks})
	return err
}

// CreateTenant implements TenantAdmin.
func (r *Remote) CreateTenant(ctx context.Context, info tenant.Info) error {
	_, err := r.call(ctx, dirRequest{
		Op: opTenantCreate, Tenant: info.Name, Domain: info.Domain,
		Quota: info.QuotaBytes, Weight: int64(info.Weight),
	})
	return err
}

// Tenants implements TenantAdmin.
func (r *Remote) Tenants(ctx context.Context) ([]TenantStatus, error) {
	resp, err := r.call(ctx, dirRequest{Op: opTenantList})
	if err != nil {
		return nil, err
	}
	return resp.Tenants, nil
}

// TenantStatus implements Metadata and TenantAdmin.
func (r *Remote) TenantStatus(ctx context.Context, name string) (TenantStatus, error) {
	resp, err := r.call(ctx, dirRequest{Op: opTenantGet, Tenant: name})
	if err != nil {
		return TenantStatus{}, err
	}
	if len(resp.Tenants) != 1 {
		return TenantStatus{}, fmt.Errorf("director: tenant status for %s: malformed response", name)
	}
	return resp.Tenants[0], nil
}

// SetTenantQuota implements TenantAdmin.
func (r *Remote) SetTenantQuota(ctx context.Context, name string, quota int64) error {
	_, err := r.call(ctx, dirRequest{Op: opTenantSetQuota, Tenant: name, Quota: quota})
	return err
}

// SetTenantWeight implements TenantAdmin.
func (r *Remote) SetTenantWeight(ctx context.Context, name string, weight int) error {
	_, err := r.call(ctx, dirRequest{Op: opTenantSetWeight, Tenant: name, Weight: int64(weight)})
	return err
}

// AccountTransfer implements Metadata.
func (r *Remote) AccountTransfer(ctx context.Context, name string, stored, restored int64) error {
	_, err := r.call(ctx, dirRequest{Op: opAccount, Tenant: name, Stored: stored, Restored: restored})
	return err
}
