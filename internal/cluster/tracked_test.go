package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/ingest"
	"sigmadedupe/internal/router"
)

// backupTracked backs refs' payload up as one named item through an
// ingest session over c's in-process transport — 4KB fixed chunking
// reproduces refs — and commits its recipe to the cluster's director
// without sealing anything (Close settles; only Flush seals).
func backupTracked(t *testing.T, c *Cluster, id int, refs []core.ChunkRef) {
	t.Helper()
	s, err := ingest.New(context.Background(), ingest.Config{
		Name: "client0", SuperChunkSize: c.cfg.SuperChunkSize, Router: c.Router(), KeepPayloads: true,
		Pin: func(context.Context) (ingest.Epoch, error) {
			return ingest.Epoch{View: func() router.View { return c.View() }, Node: c.Node, Release: func() {}}, nil
		},
	}, c.Director())
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	for _, r := range refs {
		data.Write(r.Data)
	}
	if err := s.Backup(context.Background(), itemName(id), &data); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func itemName(id int) string { return fmt.Sprintf("/item%d", id) }

// recipeOf returns the committed recipe entries of a named item.
func recipeOf(t *testing.T, c *Cluster, id int) []director.ChunkEntry {
	t.Helper()
	r, err := c.Director().GetRecipe(context.Background(), itemName(id))
	if err != nil {
		t.Fatalf("item %d: %v", id, err)
	}
	return r.Chunks
}
