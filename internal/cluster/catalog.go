package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/sderr"
)

// catalog adapts the simulator's recipe tracker and pending-transaction
// list to migrate.Catalog — the in-RAM stand-in for the director's
// RECIPES and MEMBERS journals. An item's recipe path is its decimal
// fileID.
type catalog struct{ c *Cluster }

func itemPath(id uint64) string { return strconv.FormatUint(id, 10) }

// snapshot copies one tracked recipe into the engine's shape; caller
// holds recMu.
func snapshot(id uint64, r simRecipe) director.Recipe {
	return director.Recipe{Path: itemPath(id), Session: r.session, Gen: r.gen,
		Chunks: append([]RecipeEntry(nil), r.entries...)}
}

// Recipes implements migrate.Catalog, ascending by item ID.
func (k catalog) Recipes(context.Context) ([]director.Recipe, error) {
	k.c.recMu.Lock()
	defer k.c.recMu.Unlock()
	ids := make([]uint64, 0, len(k.c.recipes))
	for id := range k.c.recipes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]director.Recipe, len(ids))
	for i, id := range ids {
		out[i] = snapshot(id, k.c.recipes[id])
	}
	return out, nil
}

// ReplaceRecipe implements migrate.Catalog.
func (k catalog) ReplaceRecipe(_ context.Context, path string, ifSession, ifGen uint64, chunks []director.ChunkEntry) error {
	return k.replace(path, ifSession, ifGen, func(r *simRecipe) {
		r.entries = append([]RecipeEntry(nil), chunks...)
	})
}

// replace applies edit to the recipe at path iff it is still the session
// and generation given, and bumps the generation.
func (k catalog) replace(path string, ifSession, ifGen uint64, edit func(*simRecipe)) error {
	id, err := strconv.ParseUint(path, 10, 64)
	if err != nil {
		return fmt.Errorf("cluster: recipe path %q is not an item ID: %w", path, err)
	}
	k.c.recMu.Lock()
	defer k.c.recMu.Unlock()
	r, ok := k.c.recipes[id]
	if !ok || r.session != ifSession || r.gen != ifGen {
		return fmt.Errorf("cluster: item %d changed since read: %w", id, sderr.ErrConflict)
	}
	r.gen++
	edit(&r)
	k.c.recipes[id] = r
	return nil
}

// runCatalog is the catalog as write-path replication sees it: the
// recipe at hand is only the run just appended at entry base of its
// item, so the engine's per-run rewrite costs the run, not the whole
// item (an item of S super-chunks would otherwise copy S² entries).
// Transactions it journals carry run-relative segment positions;
// recovery goes by their endpoints and fingerprints only.
type runCatalog struct {
	catalog
	base int
}

// ReplaceRecipe rewrites the run in place inside its item's recipe.
func (k runCatalog) ReplaceRecipe(_ context.Context, path string, ifSession, ifGen uint64, chunks []director.ChunkEntry) error {
	return k.replace(path, ifSession, ifGen, func(r *simRecipe) {
		copy(r.entries[k.base:], chunks)
	})
}

// BeginMigration implements migrate.Catalog.
func (k catalog) BeginMigration(_ context.Context, m director.Migration) (uint64, error) {
	k.c.recMu.Lock()
	defer k.c.recMu.Unlock()
	k.c.nextMig++
	m.ID = k.c.nextMig
	k.c.pendingMigs[m.ID] = m
	return m.ID, nil
}

// EndMigration implements migrate.Catalog.
func (k catalog) EndMigration(_ context.Context, id uint64) error {
	k.c.recMu.Lock()
	defer k.c.recMu.Unlock()
	delete(k.c.pendingMigs, id)
	return nil
}

// PendingMigrations implements migrate.Catalog, ascending by ID.
func (k catalog) PendingMigrations(context.Context) ([]director.Migration, error) {
	k.c.recMu.Lock()
	defer k.c.recMu.Unlock()
	out := make([]director.Migration, 0, len(k.c.pendingMigs))
	for _, m := range k.c.pendingMigs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
