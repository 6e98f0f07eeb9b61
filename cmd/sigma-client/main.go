// Command sigma-client performs source inline deduplicated backup,
// restore, deletion and online membership changes against a Σ-Dedupe
// cluster, through the public context-first Backend API. Ctrl-C cancels
// a backup mid-stream: the pipeline stops within about one super-chunk
// of work.
//
// Usage:
//
//	sigma-client -director 127.0.0.1:7700 -nodes 127.0.0.1:7701,127.0.0.1:7702 backup FILE...
//	sigma-client -director 127.0.0.1:7700 -nodes ... restore PATH -out FILE
//	sigma-client -director 127.0.0.1:7700 -nodes ... delete PATH
//	sigma-client -director 127.0.0.1:7700 -nodes ... compact
//	sigma-client -director 127.0.0.1:7700 -nodes "" add-node 127.0.0.1:7703
//	sigma-client -director 127.0.0.1:7700 -nodes "" rebalance
//	sigma-client -director 127.0.0.1:7700 -nodes "" remove-node 1
//
// Multi-tenant operation: -tenant scopes backup/restore/delete to a
// tenant's namespace, and the tenant-* verbs manage tenants. As with
// every flag, -domain/-quota/-weight go before the verb:
//
//	sigma-client ... -domain isolated -quota 1073741824 -weight 2 tenant-create acme
//	sigma-client ... tenant-list
//	sigma-client ... tenant-set-quota acme 2147483648
//	sigma-client ... tenant-set-weight acme 4
//	sigma-client ... -tenant acme backup FILE...
//
// Membership is director-managed: once the cluster has grown or shrunk,
// pass -nodes "" so the director's journaled member list is used (or
// list every current member's address).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"sigmadedupe"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-client:", err)
		os.Exit(1)
	}
}

func run() error {
	dirAddr := flag.String("director", "127.0.0.1:7700", "director address")
	nodes := flag.String("nodes", "127.0.0.1:7701", "comma-separated deduplication server addresses")
	name := flag.String("name", "sigma-client", "client name for sessions")
	out := flag.String("out", "", "output file for restore")
	scSize := flag.Int64("superchunk", 1<<20, "super-chunk size in bytes")
	cdc := flag.Bool("cdc", false, "content-defined chunking instead of fixed 4KB chunks")
	tenantName := flag.String("tenant", "", "tenant namespace for backup/restore/delete (default tenant when empty)")
	domain := flag.String("domain", "shared", "tenant-create: dedup domain (shared|isolated)")
	quota := flag.Int64("quota", 0, "tenant-create: byte quota (0 = unlimited)")
	weight := flag.Int("weight", 1, "tenant-create: fair-share weight")
	flag.Parse()

	// Interrupts cancel the whole operation tree: client pipeline,
	// in-flight RPC window, and the server-side work for those calls.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	args := flag.Args()
	if len(args) < 1 {
		return fmt.Errorf("usage: sigma-client [flags] backup FILE... | restore PATH -out FILE | delete PATH | compact")
	}
	chunk := sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFixed}
	if *cdc {
		chunk.Method = sigmadedupe.ChunkCDC
	}
	var nodeAddrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodeAddrs = append(nodeAddrs, a)
		}
	}
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           *name,
		DirectorAddr:   *dirAddr,
		Nodes:          nodeAddrs,
		SuperChunkSize: *scSize,
		Chunk:          chunk,
	})
	if err != nil {
		return err
	}
	defer be.Close()

	switch args[0] {
	case "backup":
		if len(args) < 2 {
			return fmt.Errorf("backup: need at least one file")
		}
		sess, err := be.NewSession(ctx,
			sigmadedupe.WithSessionName(*name),
			sigmadedupe.WithTenant(*tenantName),
			sigmadedupe.WithChunkSpec(chunk),
			sigmadedupe.WithSuperChunkSize(*scSize))
		if err != nil {
			return err
		}
		defer sess.Close()
		for _, path := range args[1:] {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			err = sess.Backup(ctx, filepath.Clean(path), f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if err := sess.Flush(ctx); err != nil {
			return err
		}
		st := sess.Stats()
		fmt.Printf("backed up %d files, %d bytes logical, %d bytes transferred (%.1f%% bandwidth saved)\n",
			st.Files, st.LogicalBytes, st.TransferredBytes, 100*st.BandwidthSaving())
		return nil

	case "restore":
		if len(args) != 2 || *out == "" {
			return fmt.Errorf("restore: need PATH and -out FILE")
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := be.RestoreTenant(ctx, *tenantName, filepath.Clean(args[1]), f); err != nil {
			return err
		}
		fmt.Printf("restored %s to %s\n", args[1], *out)
		return nil

	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("delete: need PATH")
		}
		if err := be.DeleteTenant(ctx, *tenantName, filepath.Clean(args[1])); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", args[1])
		return nil

	case "compact":
		res, err := be.Compact(ctx, 0)
		if err != nil {
			return err
		}
		fmt.Printf("compacted: %d containers scanned, %d retired, %d bytes reclaimed\n",
			res.ContainersScanned, res.ContainersRetired, res.ReclaimedBytes)
		return nil

	case "tenant-create":
		if len(args) != 2 {
			return fmt.Errorf("tenant-create: need NAME (plus -domain/-quota/-weight flags)")
		}
		err := be.CreateTenant(ctx, sigmadedupe.TenantConfig{
			Name:       args[1],
			Domain:     sigmadedupe.TenantDomain(*domain),
			QuotaBytes: *quota,
			Weight:     *weight,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tenant %s created (domain %s, quota %d, weight %d)\n", args[1], *domain, *quota, *weight)
		return nil

	case "tenant-list":
		sts, err := be.Tenants(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %-9s %12s %6s %14s %14s %8s %6s\n",
			"TENANT", "DOMAIN", "QUOTA", "WEIGHT", "LIVE", "STORED", "BACKUPS", "DR")
		for _, st := range sts {
			fmt.Printf("%-20s %-9s %12d %6d %14d %14d %8d %6.2f\n",
				st.Name, st.Domain, st.QuotaBytes, st.Weight,
				st.Usage.LiveBytes, st.Usage.StoredBytes, st.Usage.Backups, st.Usage.DedupRatio)
		}
		return nil

	case "tenant-set-quota":
		if len(args) != 3 {
			return fmt.Errorf("tenant-set-quota: need NAME BYTES")
		}
		var q int64
		if _, err := fmt.Sscanf(args[2], "%d", &q); err != nil {
			return fmt.Errorf("tenant-set-quota: bad byte count %q", args[2])
		}
		if err := be.SetTenantQuota(ctx, args[1], q); err != nil {
			return err
		}
		fmt.Printf("tenant %s quota set to %d bytes\n", args[1], q)
		return nil

	case "tenant-set-weight":
		if len(args) != 3 {
			return fmt.Errorf("tenant-set-weight: need NAME WEIGHT")
		}
		var wgt int
		if _, err := fmt.Sscanf(args[2], "%d", &wgt); err != nil {
			return fmt.Errorf("tenant-set-weight: bad weight %q", args[2])
		}
		if err := be.SetTenantWeight(ctx, args[1], wgt); err != nil {
			return err
		}
		fmt.Printf("tenant %s weight set to %d\n", args[1], wgt)
		return nil

	case "add-node":
		if len(args) != 2 {
			return fmt.Errorf("add-node: need the new server's ADDR")
		}
		id, err := be.AddNode(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("node %d joined at %s; run rebalance to spread existing data onto it\n", id, args[1])
		return nil

	case "remove-node":
		if len(args) != 2 {
			return fmt.Errorf("remove-node: need the node ID")
		}
		var id int
		if _, err := fmt.Sscanf(args[1], "%d", &id); err != nil {
			return fmt.Errorf("remove-node: bad node ID %q", args[1])
		}
		res, err := be.RemoveNode(ctx, id)
		if err != nil {
			return err
		}
		fmt.Printf("node %d drained and removed: %d backups, %d super-chunks, %d bytes migrated\n",
			id, res.Backups, res.SuperChunks, res.Bytes)
		return nil

	case "rebalance":
		res, err := be.Rebalance(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("rebalanced: %d backups, %d super-chunks, %d bytes migrated\n",
			res.Backups, res.SuperChunks, res.Bytes)
		return nil

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
