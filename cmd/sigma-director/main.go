// Command sigma-director runs the Σ-Dedupe director: backup-session,
// file-recipe and tenant management for backup clients, optionally
// exposing the metrics/admin HTTP endpoint.
//
// Usage:
//
//	sigma-director -addr 127.0.0.1:7700 [-metrics 127.0.0.1:7780]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sigmadedupe"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/rpc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-director:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7700", "TCP listen address")
	metricsAddr := flag.String("metrics", "", "metrics/admin HTTP listen address (empty = disabled)")
	flag.Parse()

	d := director.New()
	svc, err := rpc.NewDirectorServer(d, *addr)
	if err != nil {
		return err
	}
	fmt.Printf("sigma-director: listening on %s\n", svc.Addr())
	if *metricsAddr != "" {
		ms, err := sigmadedupe.ServeDirectorMetrics(*metricsAddr, d)
		if err != nil {
			svc.Close()
			return err
		}
		defer ms.Close()
		fmt.Printf("sigma-director: metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("sigma-director: %d sessions, %d files tracked\n", d.NumSessions(), len(d.Files()))
	return svc.Close()
}
