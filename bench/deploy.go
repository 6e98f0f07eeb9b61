package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sigmadedupe"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
)

// deployment is one running cluster under test. The prototype's servers
// live in this process (node.New + rpc.NewServer) so node counters can be
// read after a run; everything the timed phases call goes through the
// public Backend.
type deployment struct {
	sp   *spec
	dir  string // scratch directory of this deployment (sockets, node state)
	be   sigmadedupe.Backend
	gc   func(context.Context) (sigmadedupe.GCStats, error)
	sim  *sigmadedupe.Cluster // simulator deployments only
	meta *sigmadedupe.Director

	nodes   []*node.Node
	servers []*rpc.Server
}

func (sp *spec) nodeConfig(dir string, id int, recover bool) node.Config {
	cfg := node.Config{ID: id, KeepPayloads: true, ReadCacheBytes: sp.readCache, Recover: recover}
	if sp.disk {
		cfg.Dir = filepath.Join(dir, fmt.Sprintf("node%d", id))
	}
	return cfg
}

// listenAddr is the address node id serves on. Unix socket paths stay
// relative to the working directory: sun_path is limited to 108 bytes
// and a checkout can sit under a long prefix.
func (sp *spec) listenAddr(dir string, id int, generation int) string {
	if sp.unixSockets {
		return fmt.Sprintf("unix:%s/n%d-%d.sock", dir, id, generation)
	}
	return "127.0.0.1:0"
}

// deploy starts a fresh cluster for sp under dir (created, and removed
// again by close).
func deploy(ctx context.Context, sp *spec, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{sp: sp, dir: dir}
	if sp.sim {
		c, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{
			Nodes:        sp.nodes,
			Scheme:       sigmadedupe.SchemeSigma,
			KeepPayloads: true,
			Fingerprint:  sp.fingerprint,
		})
		if err != nil {
			return nil, err
		}
		d.sim, d.be = c, c
		d.gc = func(context.Context) (sigmadedupe.GCStats, error) { return c.GCStats(), nil }
		return d, nil
	}
	if err := d.startPrototype(ctx, false, 0); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// startPrototype brings up nodes, servers, the director and the Remote
// backend; with recover set it re-opens the durable state under d.dir.
func (d *deployment) startPrototype(ctx context.Context, recover bool, generation int) error {
	sp := d.sp
	addrs := make([]string, sp.nodes)
	for i := 0; i < sp.nodes; i++ {
		n, err := node.New(sp.nodeConfig(d.dir, i, recover))
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
		srv, err := rpc.NewServer(n, sp.listenAddr(d.dir, i, generation))
		if err != nil {
			return err
		}
		d.servers = append(d.servers, srv)
		addrs[i] = srv.Addr()
	}
	if sp.disk {
		meta, err := sigmadedupe.OpenDirectorAt(filepath.Join(d.dir, "director"))
		if err != nil {
			return err
		}
		d.meta = meta
	} else {
		d.meta = sigmadedupe.NewDirector()
	}
	rem, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:        "bench",
		Director:    d.meta,
		Nodes:       addrs,
		Chunk:       sp.chunk,
		Fingerprint: sp.fingerprint,
	})
	if err != nil {
		return err
	}
	d.be, d.gc = rem, rem.GCStats
	return nil
}

// stop shuts the running processes-in-process down, keeping the durable
// state on disk.
func (d *deployment) stop() error {
	var errs []error
	if d.be != nil {
		errs = append(errs, d.be.Close())
	}
	for _, s := range d.servers {
		errs = append(errs, s.Close())
	}
	for _, n := range d.nodes {
		errs = append(errs, n.Close())
	}
	if d.meta != nil {
		errs = append(errs, d.meta.Close())
	}
	d.be, d.sim, d.meta, d.servers, d.nodes = nil, nil, nil, nil, nil
	return errors.Join(errs...)
}

// restart is the stop/recover cycle of the durable workload: everything
// is closed and re-opened from disk, as after a reboot.
func (d *deployment) restart(ctx context.Context) error {
	if err := d.stop(); err != nil {
		return err
	}
	return d.startPrototype(ctx, true, 1)
}

// close stops the deployment and removes its scratch directory.
func (d *deployment) close() error {
	return errors.Join(d.stop(), os.RemoveAll(d.dir))
}

// diskBytes sums the size of every file under the deployment's node
// directories.
func (d *deployment) diskBytes() int64 {
	var n int64
	_ = filepath.Walk(d.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
