package workload

import (
	"fmt"
	"math/rand"
)

// vmConfig parameterizes the VM-backup stand-in: a handful of very large
// disk-image files, backed up in two consecutive fulls (paper Table 2:
// DR 4.34 CDC / 4.11 SC). The skewed file-size distribution — a few huge
// files — is the property that defeats Extreme Binning's file-level
// routing in Fig. 8 and must be preserved.
type vmConfig struct {
	Seed int64
	// Images is the number of VM disk images (the paper backs up 8 VMs:
	// 3 Windows, 5 Linux).
	Images int
	// ImageBlocks is the mean image size in 4KB blocks. Individual image
	// sizes are skewed around this mean (some images 4x others).
	ImageBlocks int
	// Fulls is the number of consecutive full backups (paper: 2).
	Fulls int
	// SharedFraction is the fraction of an image's blocks drawn from the
	// cross-VM common pool (OS files shared between machines).
	SharedFraction float64
	// PoolBlocks is the size of the common pool in blocks.
	PoolBlocks int
	// Churn is the fraction of an image's blocks rewritten between fulls.
	Churn float64
}

// defaultVMConfig yields ~260MB logical with DR ≈ 4.3 at 4KB chunks.
func defaultVMConfig() vmConfig {
	return vmConfig{
		Seed:           2,
		Images:         8,
		ImageBlocks:    2048, // 8MB mean image
		Fulls:          2,
		SharedFraction: 0.65,
		PoolBlocks:     1200,
		Churn:          0.05,
	}
}

// vm generates the virtual-machine full-backup workload.
type vm struct {
	cfg vmConfig
}

var _ Generator = (*vm)(nil)

// newVM validates cfg and returns the generator.
func newVM(cfg vmConfig) (*vm, error) {
	if cfg.Images < 1 || cfg.ImageBlocks < 1 || cfg.Fulls < 1 || cfg.PoolBlocks < 1 {
		return nil, fmt.Errorf("workload: vm counts must be >= 1: %+v", cfg)
	}
	if cfg.SharedFraction < 0 || cfg.SharedFraction > 1 || cfg.Churn < 0 || cfg.Churn > 1 {
		return nil, fmt.Errorf("workload: vm fractions must be in [0,1]: %+v", cfg)
	}
	return &vm{cfg: cfg}, nil
}

// Name implements Generator.
func (v *vm) Name() string { return "vm" }

// HasFileInfo implements Generator.
func (v *vm) HasFileInfo() bool { return true }

// Items implements Generator: Fulls passes over Images disk images; each
// image is one large file whose blocks mix pool blocks and private blocks,
// with Churn of blocks rewritten between fulls.
func (v *vm) Items(yield func(Item) error) error {
	cfg := v.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := newSeedStream(cfg.Seed+1, 2)

	pool := make([]uint64, cfg.PoolBlocks)
	for i := range pool {
		pool[i] = seeds.fresh()
	}

	// Skewed image sizes: image i gets a size factor in [0.35, 2.75], so
	// the largest images are several times the smallest.
	images := make([][]uint64, cfg.Images)
	for i := range images {
		factor := 0.35 + 2.4*rng.Float64()
		n := int(float64(cfg.ImageBlocks) * factor)
		if n < 1 {
			n = 1
		}
		img := make([]uint64, n)
		for b := range img {
			if rng.Float64() < cfg.SharedFraction {
				img[b] = pool[rng.Intn(len(pool))]
			} else {
				img[b] = seeds.fresh()
			}
		}
		images[i] = img
	}

	var fileID uint64
	for full := 0; full < cfg.Fulls; full++ {
		if full > 0 {
			for _, img := range images {
				for b := range img {
					if rng.Float64() < cfg.Churn {
						img[b] = seeds.fresh()
					}
				}
			}
		}
		for i, img := range images {
			fileID++
			it := Item{
				FileID: fileID,
				Name:   fmt.Sprintf("full%d/vm%02d.img", full, i),
				Blocks: append([]uint64(nil), img...),
			}
			if err := yield(it); err != nil {
				return err
			}
		}
	}
	return nil
}
