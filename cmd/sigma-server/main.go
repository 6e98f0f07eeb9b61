// Command sigma-server runs one Σ-Dedupe deduplication server node,
// speaking the internal RPC protocol over TCP. With -dir the node is
// durable (containers + recovery manifest on disk); -recover re-opens
// that state after a restart.
//
// Usage:
//
//	sigma-server -addr 127.0.0.1:7701 -id 0 [-dir /var/lib/sigma/node0] [-recover]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sigmadedupe"
	"sigmadedupe/internal/fingerprint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7701", "TCP listen address")
	id := flag.Int("id", 0, "node ID")
	dir := flag.String("dir", "", "durable directory: containers + recovery manifest (empty = RAM only)")
	recover := flag.Bool("recover", false, "re-open durable state from -dir (restart after shutdown or crash)")
	handprint := flag.Int("handprint", 8, "handprint size k")
	flag.Parse()

	if *recover && *dir == "" {
		return fmt.Errorf("-recover requires -dir")
	}
	srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{
		ID:            *id,
		Addr:          *addr,
		Dir:           *dir,
		Recover:       *recover,
		HandprintSize: *handprint,
	})
	if err != nil {
		return err
	}
	if *recover {
		fmt.Printf("sigma-server: node %d recovered %d MB from %s\n", *id, srv.StorageUsage()>>20, *dir)
	}
	fmt.Printf("sigma-server: node %d listening on %s\n", *id, srv.Addr())
	fmt.Printf("sigma-server: SHA-1 implementation %s, SHA-256 %s\n", fingerprint.SHA1.Impl(), fingerprint.SHA256.Impl())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sigma-server: shutting down")
	// Close stops the listener and drains the handlers before it seals the
	// containers, so durable state is complete once it returns.
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Printf("sigma-server: stored %d MB, DR %.2f\n", srv.StorageUsage()>>20, srv.DedupRatio())
	return nil
}
