package director

import (
	"encoding/json"
	"fmt"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/tenant"
)

// The director's journals were JSON lines before they were record logs.
// These wire.LegacyLine converters turn each line into the body of the
// equivalent record when a journal is opened and rewritten once.

// legacyRecipeLine converts one RECIPES line:
//
//	{"t":"put","tenant":"acme","path":"a","session":1,"gen":1,"chunks":[{"fp":"<40-hex>","size":4096,"node":0,"r":2}]}
//	{"t":"del","tenant":"acme","path":"a"}
//
// A line without "tenant" predates multi-tenancy (default tenant); a chunk
// without "r" predates replication (R journals Replica+1, so it reads as
// no replica).
func legacyRecipeLine(b, line []byte) ([]byte, error) {
	var rec struct {
		T       string `json:"t"`
		Tenant  string `json:"tenant"`
		Path    string `json:"path"`
		Session uint64 `json:"session"`
		Gen     uint64 `json:"gen"`
		Chunks  []struct {
			FP   string `json:"fp"`
			Size int32  `json:"size"`
			Node int32  `json:"node"`
			R    int32  `json:"r"`
		} `json:"chunks"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return b, err
	}
	switch rec.T {
	case "put":
		chunks := make([]ChunkEntry, len(rec.Chunks))
		for i, c := range rec.Chunks {
			fp, err := fingerprint.Parse(c.FP)
			if err != nil {
				return b, err
			}
			chunks[i] = ChunkEntry{FP: fp, Size: c.Size, Node: c.Node, Replica: c.R - 1}
		}
		return appendPut(b, rec.Tenant, rec.Path, rec.Session, rec.Gen, chunks), nil
	case "del":
		return appendDel(b, rec.Tenant, rec.Path), nil
	}
	return b, fmt.Errorf("unknown record type %q", rec.T)
}

// legacyMemberLine converts one MEMBERS line:
//
//	{"t":"epoch","epoch":2,"nodes":[{"id":0,"addr":"10.0.0.1:7701"}]}
//	{"t":"mig","id":1,"path":"a","from":0,"to":1,"start":0,"count":2,"fps":["<40-hex>",...]}
//	{"t":"migend","id":1}
func legacyMemberLine(b, line []byte) ([]byte, error) {
	var rec struct {
		T     string     `json:"t"`
		Epoch uint64     `json:"epoch"`
		Nodes []NodeInfo `json:"nodes"`
		ID    uint64     `json:"id"`
		Path  string     `json:"path"`
		From  int32      `json:"from"`
		To    int32      `json:"to"`
		Start int        `json:"start"`
		Count int        `json:"count"`
		FPs   []string   `json:"fps"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return b, err
	}
	switch rec.T {
	case "epoch":
		return appendEpoch(b, rec.Epoch, rec.Nodes), nil
	case "mig":
		m := Migration{ID: rec.ID, Path: rec.Path, From: rec.From, To: rec.To, Start: rec.Start, Count: rec.Count,
			FPs: make([]fingerprint.Fingerprint, len(rec.FPs))}
		for i, hex := range rec.FPs {
			var err error
			if m.FPs[i], err = fingerprint.Parse(hex); err != nil {
				return b, err
			}
		}
		return appendMig(b, &m), nil
	case "migend":
		return appendMigEnd(b, rec.ID), nil
	}
	return b, fmt.Errorf("unknown record type %q", rec.T)
}

// legacyTenantLine converts one TENANTS line:
//
//	{"name":"acme","domain":"shared","quota":1048576,"weight":3}
func legacyTenantLine(b, line []byte) ([]byte, error) {
	var rec struct {
		Name   string `json:"name"`
		Domain string `json:"domain"`
		Quota  int64  `json:"quota"`
		Weight int    `json:"weight"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return b, err
	}
	return appendTenant(b, tenant.Info{Name: rec.Name, Domain: rec.Domain, QuotaBytes: rec.Quota, Weight: rec.Weight}), nil
}
