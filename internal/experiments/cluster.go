package experiments

import (
	"context"
	"fmt"

	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// run is one cluster configuration after replaying a workload: the
// cluster and the session counters.
type run struct {
	c  *cluster.Cluster
	st ingest.Stats
}

// clusterRun replays one workload as one stream ("client0") through one
// cluster configuration.
func clusterRun(wl string, scale float64, cfg cluster.Config) (run, error) {
	g, err := workload.ByName(wl, scale, 0)
	if err != nil {
		return run{}, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return run{}, err
	}
	st, err := c.Replay(context.Background(),
		map[string]cluster.Trace{"client0": cluster.Workload(g, workload.NewCorpus(0))})
	if err != nil {
		return run{}, err
	}
	return run{c, st}, nil
}

// msgs is the Fig. 7 metric: all fingerprint-lookup messages.
func (r run) msgs() int64 { return r.st.PreRoutingMsgs + r.st.AfterRoutingMsgs }

// fig8Schemes are the four routing schemes of the paper's comparison.
var fig8Schemes = []router.Scheme{
	router.Sigma, router.Stateful, router.Stateless, router.ExtremeBinning,
}

// Fig6 reproduces the handprint-size sensitivity of cluster dedup
// (Fig. 6): cluster deduplication ratio, normalized to single-node exact
// dedup, as a function of the handprint size for several cluster sizes,
// on the Linux workload with 1MB super-chunks.
func Fig6(opts Options) (*Table, error) {
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	ns := []int{4, 16, 64, 128}
	if opts.Quick {
		ks = []int{1, 8, 32}
		ns = []int{16}
	}
	scale := 0.6 * opts.scale()

	t := &Table{
		Name:  "fig6",
		Title: "Cluster dedup ratio (normalized to exact single-node) vs handprint size, Linux, 1MB super-chunks",
		Headers: append([]string{"k"}, func() []string {
			h := make([]string, len(ns))
			for i, n := range ns {
				h[i] = fmt.Sprintf("N=%d", n)
			}
			return h
		}()...),
	}
	for _, k := range ks {
		row := []string{fmt.Sprintf("%d", k)}
		for _, n := range ns {
			r, err := clusterRun("linux", scale, cluster.Config{
				N: n, Scheme: router.Sigma, HandprintK: k,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f3(r.c.NormalizedDR()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"normalized DR improves with handprint size; the paper picks k=8 as the effectiveness/overhead balance")
	return t, nil
}

// Fig7 reproduces the system-overhead experiment (Fig. 7): the total
// number of fingerprint-lookup messages as a function of the cluster
// size, for the four schemes, on the Linux and VM datasets.
func Fig7(opts Options) (*Table, error) {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if opts.Quick {
		ns = []int{4, 32}
	}
	scale := 0.5 * opts.scale()

	t := &Table{
		Name:    "fig7",
		Title:   "Fingerprint-lookup messages (millions) vs cluster size",
		Headers: []string{"workload", "scheme", "N", "pre-routing(M)", "after-routing(M)", "total(M)"},
	}
	for _, wl := range []string{"linux", "vm"} {
		for _, s := range fig8Schemes {
			if s == router.ExtremeBinning && wl != "linux" && wl != "vm" {
				continue
			}
			for _, n := range ns {
				r, err := clusterRun(wl, scale, cluster.Config{N: n, Scheme: s})
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					wl, s.String(), fmt.Sprintf("%d", n),
					f3(float64(r.st.PreRoutingMsgs) / 1e6),
					f3(float64(r.st.AfterRoutingMsgs) / 1e6),
					f3(float64(r.msgs()) / 1e6),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"Sigma/Stateless/ExtremeBinning stay ~flat with N; Stateful's 1-to-all pre-routing grows linearly",
		"Sigma's total stays within ~1.25x of Stateless (pre-routing = k RFPs x k candidates per super-chunk)")
	return t, nil
}

// Fig8 reproduces the headline cluster-effectiveness comparison (Fig. 8):
// normalized effective deduplication ratio (Eq. 7) as a function of the
// cluster size for the four routing schemes on all four workloads.
// Extreme Binning cannot run on the mail and web traces (no file
// metadata), matching the paper.
func Fig8(opts Options) (*Table, error) {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if opts.Quick {
		ns = []int{4, 32}
	}
	scale := 0.5 * opts.scale()

	t := &Table{
		Name:    "fig8",
		Title:   "Normalized effective deduplication ratio (EDR) vs cluster size, four workloads",
		Headers: []string{"workload", "scheme", "N", "EDR", "normDR", "skew"},
	}
	for _, wl := range workload.Names() {
		hasFiles := wl == "linux" || wl == "vm"
		for _, s := range fig8Schemes {
			if s == router.ExtremeBinning && !hasFiles {
				continue // traces carry no file metadata
			}
			for _, n := range ns {
				r, err := clusterRun(wl, scale, cluster.Config{N: n, Scheme: s})
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					wl, s.String(), fmt.Sprintf("%d", n),
					f3(r.c.EDR()), f3(r.c.NormalizedDR()), f3(r.c.Skew()),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: Stateful >= Sigma >> Stateless; ExtremeBinning collapses on VM (file-size skew)",
		"all curves decline with N faster than in the paper: the synthetic datasets are ~100x smaller, so",
		"per-node routing statistics starve at N=128 (see EXPERIMENTS.md)")
	return t, nil
}

// Table1 regenerates the paper's Table 1 as measured numbers at N=32:
// deduplication ratio class, throughput proxy, data skew, and
// communication overhead per scheme, plus chunk-level DHT (HYDRAstor).
func Table1(opts Options) (*Table, error) {
	scale := 0.5 * opts.scale()
	const n = 32

	t := &Table{
		Name:    "table1",
		Title:   "Scheme comparison at N=32 on Linux (measured equivalents of the paper's Table 1)",
		Headers: []string{"scheme", "granularity", "normDR", "skew", "msgs/superchunk", "EDR"},
	}
	schemes := []struct {
		s    router.Scheme
		gran string
	}{
		{router.ChunkDHT, "chunk"},
		{router.ExtremeBinning, "file"},
		{router.Stateless, "super-chunk"},
		{router.Stateful, "super-chunk"},
		{router.Sigma, "super-chunk"},
	}
	for _, sc := range schemes {
		r, err := clusterRun("linux", scale, cluster.Config{N: n, Scheme: sc.s})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			sc.s.String(), sc.gran,
			f3(r.c.NormalizedDR()),
			f3(r.c.Skew()),
			f2(float64(r.msgs()) / float64(r.st.SuperChunks)),
			f3(r.c.EDR()),
		})
	}
	t.Notes = append(t.Notes,
		"paper's qualitative Table 1: HydraStor medium DR/low overhead, EB medium DR, Stateless medium DR,",
		"Stateful high DR/high overhead, Sigma high DR/low overhead")
	return t, nil
}

// Table2 regenerates the workload-characteristics table (Table 2):
// dataset size and deduplication ratio under 4KB static chunking, for the
// four synthetic stand-ins.
func Table2(opts Options) (*Table, error) {
	t := &Table{
		Name:    "table2",
		Title:   "Workload characteristics (4KB static chunking)",
		Headers: []string{"dataset", "size(MB)", "DR(SC-4KB)", "paper-size(GB)", "paper-DR(SC)"},
	}
	paper := map[string][2]string{
		"linux": {"160", "7.96"},
		"vm":    {"313", "4.11"},
		"mail":  {"526", "10.52"},
		"web":   {"43", "1.9"},
	}
	for _, name := range workload.Names() {
		g, err := workload.ByName(name, opts.scale(), 0)
		if err != nil {
			return nil, err
		}
		items, err := workload.Collect(g)
		if err != nil {
			return nil, err
		}
		logical := workload.TotalBytes(items)
		unique := int64(workload.UniqueBlocks(items)) * workload.BlockSize
		p := paper[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", logical>>20),
			f2(float64(logical) / float64(unique)),
			p[0], p[1],
		})
	}
	t.Notes = append(t.Notes, "sizes are scaled down ~100-500x; dedup ratios are calibrated to the paper's Table 2")
	return t, nil
}
