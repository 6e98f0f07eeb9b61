// Command sigma-tracegen captures a synthetic workload as a binary chunk
// trace (internal/trace format), or replays a captured trace through a
// simulated cluster's ingest session under any of the five routing
// schemes — the trace-driven methodology of the paper's §4.4.
//
// Usage:
//
//	sigma-tracegen gen    -workload linux -scale 1 -out linux.trace
//	sigma-tracegen replay -in linux.trace -nodes 32 -scheme sigma
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/trace"
	"sigmadedupe/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sigma-tracegen gen|replay [flags]")
	}
	switch args[0] {
	case "gen":
		return gen(args[1:])
	case "replay":
		return replay(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "linux", "dataset: linux|vm|mail|web")
	scale := fs.Float64("scale", 1, "dataset scale")
	seed := fs.Int64("seed", 0, "generator seed")
	out := fs.String("out", "", "output trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	g, err := workload.ByName(*name, *scale, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	corpus := workload.NewCorpus(0)
	var logical int64
	err = g.Items(func(it workload.Item) error {
		for _, ref := range corpus.ChunkRefs(it, false) {
			logical += int64(ref.Size)
			rec := trace.Record{FP: ref.FP, Size: uint32(ref.Size), FileID: it.FileID}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d chunk records (%d MB logical) to %s\n", w.Count(), logical>>20, *out)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("in", "", "input trace file")
	nodes := fs.Int("nodes", 32, "cluster size")
	schemeName := fs.String("scheme", "sigma", "routing scheme: sigma|stateless|stateful|eb|dht")
	k := fs.Int("handprint", 8, "handprint size")
	scSize := fs.Int64("superchunk", 1<<20, "super-chunk size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("replay: -in is required")
	}
	scheme, err := router.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	c, err := cluster.New(cluster.Config{
		N: *nodes, Scheme: scheme, HandprintK: *k, SuperChunkSize: *scSize,
	})
	if err != nil {
		return err
	}

	// Consecutive records of the same file are one file of the stream. A
	// trace that ends anywhere but a record boundary is an error, not a
	// shorter replay.
	var chunks int64
	tr := func(yield func(uint64, []core.ChunkRef) error) error {
		var (
			cur  uint64
			refs []core.ChunkRef
		)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			chunks++
			if rec.FileID != cur && len(refs) > 0 {
				if err := yield(cur, refs); err != nil {
					return err
				}
				refs = refs[:0]
			}
			cur = rec.FileID
			refs = append(refs, rec.Ref())
		}
		if len(refs) == 0 {
			return nil
		}
		return yield(cur, refs)
	}
	st, err := c.Replay(context.Background(), map[string]cluster.Trace{"client0": tr})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d chunks through %d-node %s cluster\n", chunks, *nodes, c.Scheme())
	fmt.Printf("  cluster DR:     %.2f\n", c.DedupRatio(st.LogicalBytes))
	fmt.Printf("  normalized DR:  %.3f\n", c.NormalizedDR())
	fmt.Printf("  effective DR:   %.3f (Eq. 7)\n", c.EDR())
	fmt.Printf("  storage skew:   %.3f\n", c.Skew())
	fmt.Printf("  fp-lookup msgs: %d\n", st.PreRoutingMsgs+st.AfterRoutingMsgs)
	return nil
}
